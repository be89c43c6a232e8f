package sweep

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// goldenMatrix is the matrix behind the report golden files in testdata:
// real benchmark and kind names, so a sweep server accepts it too, and
// goldenFailKey is its one failed cell. internal/sweepd renders the same
// matrix through its merge endpoint and compares against the same files.
func goldenMatrix() Matrix {
	return Matrix{
		Benches: []string{"x264", "streamcluster"},
		Kinds:   []string{"dir", "sp"},
		Seeds:   []int64{42, 7},
		Scales:  []float64{0.25},
		Threads: 16,
	}
}

const goldenFailKey = "x264/sp/t16/x0.25/s7"

// goldenReport is the merged report of goldenMatrix: every cell carries
// fakeResult except goldenFailKey, which failed with the error shape a
// sweep reports for a cell that exhausted its attempts.
func goldenReport() *Report {
	rep := &Report{}
	for _, j := range goldenMatrix().Jobs() {
		jr := JobResult{Job: j}
		if j.Key() == goldenFailKey {
			jr.Err = fmt.Errorf("sweep: %s: %w", j.Key(), errors.New("injected failure"))
		} else {
			jr.Result = fakeResult(j)
		}
		rep.Jobs = append(rep.Jobs, jr)
	}
	return rep
}

// TestReportGolden pins the bytes of every merged-output renderer; any
// drift here changes what `spsweep run` prints.
func TestReportGolden(t *testing.T) {
	rep := goldenReport()
	var table, csv, js bytes.Buffer
	rep.FormatTable(&table)
	if err := rep.FormatCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if err := rep.FormatJSON(&js); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		file string
		got  []byte
	}{
		{"report_golden.txt", table.Bytes()},
		{"report_golden.csv", csv.Bytes()},
		{"report_golden.json", js.Bytes()},
	} {
		want, err := os.ReadFile(filepath.Join("testdata", c.file))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(c.got, want) {
			t.Errorf("%s drifted:\n got:\n%s\nwant:\n%s", c.file, c.got, want)
		}
	}
}

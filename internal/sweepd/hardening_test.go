package sweepd

// Hardening guards of the HTTP layer: the request-body cap (413 with a
// diagnosable JSON error, never a silent connection drop or a buffered
// multi-gigabyte decode) and the shared bearer-token check.

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"spcoh/internal/sweep"
)

// postRaw posts raw bytes at the server, optionally with a bearer token.
func postRaw(t *testing.T, c *Client, path, token string, body []byte) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, c.url(path), bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeErrorBody(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	var e errorResponse
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&e); err != nil {
		t.Fatalf("error response is not JSON: %v", err)
	}
	return e.Error
}

// TestOversizedPayloadRejected413: a submit body over the cap must come
// back as 413 with a JSON error naming the limit, and the server must
// stay fully functional afterwards.
func TestOversizedPayloadRejected413(t *testing.T) {
	_, c, stop := startServer(t, t.TempDir(), Options{MaxBodyBytes: 4096})
	defer stop()

	big := make([]byte, 8192)
	for i := range big {
		big[i] = 'x'
	}
	payload := []byte(`{"matrix":{"benches":["` + string(big) + `"]}}`)
	resp := postRaw(t, c, "/sweeps", "", payload)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized submit: got %d, want 413", resp.StatusCode)
	}
	msg := decodeErrorBody(t, resp)
	if !strings.Contains(msg, "4096") {
		t.Errorf("413 error does not name the limit: %q", msg)
	}

	// An in-cap request still works.
	if err := c.Healthz(); err != nil {
		t.Fatalf("server unhealthy after 413: %v", err)
	}
	if _, err := c.Submit(&SubmitRequest{Matrix: testServerMatrix()}); err != nil {
		t.Fatalf("in-cap submit after 413: %v", err)
	}
}

// TestTokenAuth: with a token configured, unauthenticated and
// wrong-token requests get 401, the health probe stays open, and a
// token-carrying client works end to end.
func TestTokenAuth(t *testing.T) {
	_, c, stop := startServer(t, t.TempDir(), Options{Token: "sesame"})
	defer stop()

	// Health stays open (load balancers, `spsweep work` reachability probe
	// run before credentials are known to be right).
	if err := c.Healthz(); err != nil {
		t.Fatalf("tokenless healthz: %v", err)
	}

	// No token and wrong token: 401 with a JSON error.
	for _, tok := range []string{"", "wrong"} {
		resp := postRaw(t, c, "/sweeps", tok, []byte(`{}`))
		if resp.StatusCode != http.StatusUnauthorized {
			t.Fatalf("token %q: got %d, want 401", tok, resp.StatusCode)
		}
		if msg := decodeErrorBody(t, resp); !strings.Contains(msg, "bearer token") {
			t.Errorf("401 error not diagnosable: %q", msg)
		}
	}
	if _, err := c.List(); err == nil {
		t.Fatal("tokenless client listed sweeps against a token-protected server")
	}

	// The authenticated client exercises every verb of the worker loop.
	c.SetToken("sesame")
	sub, err := c.Submit(&SubmitRequest{Matrix: testServerMatrix()})
	if err != nil {
		t.Fatalf("authenticated submit: %v", err)
	}
	exec := &countingExec{}
	drainWorker(t, c, "authed", 1, exec.exec)
	st, err := c.Status(sub.SweepID)
	if err != nil {
		t.Fatalf("authenticated status: %v", err)
	}
	if st.Counts.Done != st.Counts.Jobs || st.Counts.Failed != 0 {
		t.Fatalf("sweep not finished under auth: %+v", st.Counts)
	}
	var buf bytes.Buffer
	if err := c.Results(sub.SweepID, "json", &buf); err != nil {
		t.Fatalf("authenticated results: %v", err)
	}
	if !bytes.Equal(buf.Bytes(), localRunJSON(t, testServerMatrix())) {
		t.Error("authenticated merged results differ from the local reference run")
	}
}

// TestModeValidation: a matrix naming the removed "mode" field is refused
// at submit with a 400 that names the field, before any job is registered
// — decoding it leniently would silently run a fast-mode request as a
// detailed sweep. The in-repo client's own submissions still pass.
func TestModeValidation(t *testing.T) {
	_, c, stop := startServer(t, t.TempDir(), Options{})
	defer stop()

	body := []byte(`{"matrix":{"benches":["x264"],"kinds":["sp"],"seeds":[42],"scales":[0.25],"threads":16,"mode":"fast"}}`)
	resp := postRaw(t, c, "/sweeps", "", body)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("fast-mode submit: got %d, want 400", resp.StatusCode)
	}
	if msg := decodeErrorBody(t, resp); !strings.Contains(msg, `"mode"`) {
		t.Errorf("400 body %q does not name the unknown field", msg)
	}
	list, err := c.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(list.Sweeps) != 0 {
		t.Fatalf("rejected submit registered sweeps: %+v", list.Sweeps)
	}

	m := testServerMatrix()
	m.MetricsEpoch = 1000
	for _, m := range []sweep.Matrix{testServerMatrix(), m} {
		if _, err := c.Submit(&SubmitRequest{Matrix: m}); err != nil {
			t.Fatalf("client submit rejected: %v", err)
		}
	}
	if list, err = c.List(); err != nil || len(list.Sweeps) != 2 {
		t.Fatalf("client submits not registered: %+v, %v", list, err)
	}
}

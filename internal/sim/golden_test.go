package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"testing"

	"spcoh/internal/core"
	"spcoh/internal/protocol"
	"spcoh/internal/workload"
)

// goldenCell is one pinned run: a builtin profile on a square mesh under
// one protocol/predictor stack.
type goldenCell struct {
	bench string
	stack string // "dir" (baseline directory), "sp" or "bcast"
	nodes int
	scale float64
}

func (c goldenCell) key() string {
	return fmt.Sprintf("%s/%s/n%d/s%g", c.bench, c.stack, c.nodes, c.scale)
}

// goldenCells lists every builtin profile under the three stacks on the
// paper's 16-tile machine, plus ocean on the 8x8 mesh.
func goldenCells() []goldenCell {
	var cells []goldenCell
	for _, name := range workload.Names() {
		for _, stack := range []string{"dir", "sp", "bcast"} {
			cells = append(cells, goldenCell{bench: name, stack: stack, nodes: 16, scale: 0.05})
		}
	}
	cells = append(cells, goldenCell{bench: "ocean", stack: "dir", nodes: 64, scale: 0.02})
	return cells
}

// goldenDigest runs one cell at seed 1 and returns the SHA-256 of the
// JSON-serialized Result.
func goldenDigest(t *testing.T, c goldenCell) string {
	t.Helper()
	cfg, err := protocol.ConfigFor(c.nodes)
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions()
	opt.Machine = cfg
	switch c.stack {
	case "sp":
		opt.Predictors = core.NewSystem(core.DefaultConfig(c.nodes))
	case "bcast":
		opt.Protocol = Broadcast
	}
	res, err := Run(mustProgram(t, c.bench, c.nodes, c.scale, 1), opt)
	if err != nil {
		t.Fatalf("%s: %v", c.key(), err)
	}
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestGoldenResultDigests pins the serialized Result of every golden cell
// to a checked-in digest, so byte identity across commits is a test rather
// than a manual diff. The digests were generated on amd64; other
// architectures may fuse floating-point multiply-adds and legitimately
// differ in the last bits of derived float fields, so the test skips there.
// After an intended behaviour change, regenerate the table from the
// "got" lines this test prints on mismatch.
func TestGoldenResultDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden digests are pinned on amd64, not %s", runtime.GOARCH)
	}
	if testing.Short() {
		t.Skip("golden digests run every profile")
	}
	cells := goldenCells()
	if len(cells) != len(goldenDigests) {
		t.Errorf("%d golden cells but %d pinned digests", len(cells), len(goldenDigests))
	}
	for _, c := range cells {
		got := goldenDigest(t, c)
		if want, ok := goldenDigests[c.key()]; !ok || got != want {
			t.Errorf("digest mismatch for %s\n\tgot: %q: %q,", c.key(), c.key(), got)
		}
	}
}

// goldenDigests maps goldenCell.key to the SHA-256 of json.Marshal(Result).
var goldenDigests = map[string]string{
	"fmm/dir/n16/s0.05":             "acd506976174a3292e8589406413895596e84d0e81e9f1a1cc13fd1aa17f6712",
	"fmm/sp/n16/s0.05":              "ad79aa00e8016853f540819b73e30661bfd273a6b362e034c99a17a7959725c7",
	"fmm/bcast/n16/s0.05":           "d8b4f91f108e93d2bbdd8051cb5a88742893f25d73bfb1cf5acf5f1c3eb63642",
	"lu/dir/n16/s0.05":              "62745ff98f915d1b5741b9b8f9f9d1b3bd399168a1ed5a10ea7d151e50316798",
	"lu/sp/n16/s0.05":               "2ab8dede6f217247f070461996abdb2f67795e9722ee82a57e462a87791af145",
	"lu/bcast/n16/s0.05":            "6f6e0aa6e1227756fd5f9cd0028ad8b3271d2bdddeed6a272e61480281bd8f54",
	"ocean/dir/n16/s0.05":           "b98e5321fdfa1158666e2d7aed7a20adc5b52797d59581d8c9a6c8664ce94ca1",
	"ocean/sp/n16/s0.05":            "9b8a12bd58d781eb13198d7f33177b7a682a1c2a0dbc885297b338d0d86a8549",
	"ocean/bcast/n16/s0.05":         "1c881a4e4a342b23449ddaced1aa5aefb3767695fd9ea98f69b322076fef31ac",
	"radiosity/dir/n16/s0.05":       "09994b2ca3ec43e36a93d854d896957829583f6daf2763c980df0343057a81ec",
	"radiosity/sp/n16/s0.05":        "2d331630ec8d35f6fab42bf37ade73ea11762e70cedc0434d68b7b0f924e0af9",
	"radiosity/bcast/n16/s0.05":     "68f1e4ae04f081eabd73ca46efe3e31fc40c3735c62d8ad6b76532d362c8203c",
	"water-ns/dir/n16/s0.05":        "b66cfdf2b7f5e9282f512c0b3036965c965ea547a1b5a0644217afb0bccd8b7c",
	"water-ns/sp/n16/s0.05":         "d2e192972949732196b3706871616ce4ef91141e5618bf02499657d324de5a83",
	"water-ns/bcast/n16/s0.05":      "1d555915cd8c0fc5873299c0e715f6afb500988eae84a557d83ff538d86e5ef5",
	"cholesky/dir/n16/s0.05":        "7dd0e54011b42932b14d94ec29e780dca75a6d70747ec4f5b801f0768ef19b96",
	"cholesky/sp/n16/s0.05":         "7969bf8d8a3844f3c9712c7d56e9e8d78732492eaffb549c6d657bfe524db75c",
	"cholesky/bcast/n16/s0.05":      "037777ad4d424b84d3489d1032284c8cf2df04a89f8e3e568bafe553af1d96f6",
	"fft/dir/n16/s0.05":             "981ab599895ad70f9b730325f1c732650efbd87df819131da2b921b71d1f397a",
	"fft/sp/n16/s0.05":              "d29ca844c4f52b36b8426b8e5bb6e82bc3d53d8ce602e056a2bba60e2e2bad0b",
	"fft/bcast/n16/s0.05":           "f8fc6e6e1778a82bb76706a8b42ff2ad9340e8bd8efa53ea2ab7abeb2e6cb5c1",
	"radix/dir/n16/s0.05":           "e2ae47d04e4823e5a630e6c60b33aa1e3282a3e72ba855d24b46a8e6d4ea4d82",
	"radix/sp/n16/s0.05":            "7c1517b1b3396f42615d47e134a92ed180890adad06eb0c7973c15fa10cceacf",
	"radix/bcast/n16/s0.05":         "d73b83b5c621be99496899f43887142def54f1de571371d8110e0b49b94dbddc",
	"water-sp/dir/n16/s0.05":        "a2b73cdd101290bbbfa8d727ff00b9f5991573f941c935a1efcac11bf766eb27",
	"water-sp/sp/n16/s0.05":         "27a03b87ac171c132c5177cd9b00e1547ad102b4ddda5dcc5d5cfcaefc60476a",
	"water-sp/bcast/n16/s0.05":      "a1c55d6b0fd523495bea5c6edd5f3fe979df5554aa6a46ebf9c33135163654e1",
	"bodytrack/dir/n16/s0.05":       "4752fb685bb9fa55e8a3687c543a77f76dd9ba674cfeae2c921039a4bd4b0c77",
	"bodytrack/sp/n16/s0.05":        "006962bec11849991032199af65f5aa40b14c0851851c86b55b7a94907b2e599",
	"bodytrack/bcast/n16/s0.05":     "2b0411a215e966617f5303d9017561de7a5fa2365d96b38f49cb0b24f7b123c1",
	"fluidanimate/dir/n16/s0.05":    "66f9b747b2041407b73f379609e32094745c0430d5c25ca9bc2a19b728283e2e",
	"fluidanimate/sp/n16/s0.05":     "07989c33ff0cd06fbf4d94314ce07f4d47d2341f743dc575d5747a263dcbc47c",
	"fluidanimate/bcast/n16/s0.05":  "7031df3505ae75c18727d3be84c7bfb5460e1dd982e0dc7fc0770d2ba85d4534",
	"streamcluster/dir/n16/s0.05":   "eeed61879f0e39d3c8659a202ee898f41369b5155ffee55541ed4763456327bd",
	"streamcluster/sp/n16/s0.05":    "d3f9d3985cf9d95e7a0bda2cb60b78b60f18633005e65f1b25f0ce61510ba960",
	"streamcluster/bcast/n16/s0.05": "c0457a8a74f2a08b326377e8a9ba4fcef169856023ce0d76fc93b0d682502c7d",
	"vips/dir/n16/s0.05":            "adb2148cb3f9b1eda880945b37b2e66c9a6aecf5d9f7b001df1d0a3170b8bf39",
	"vips/sp/n16/s0.05":             "f2769adfc6fd41c02deaf0ad41b5f539d7e37103efc929f70e7f6474598b6857",
	"vips/bcast/n16/s0.05":          "7477ccc2bca6851ed115f817b3c608b329b9742fc9209f5598cada66893ae6a4",
	"facesim/dir/n16/s0.05":         "6f19df3c6ba41fea47201f306cf98cb1d2f36df504931a5a9f788415763fae41",
	"facesim/sp/n16/s0.05":          "11675ce38ab1ae1e2ea4376e0fd32ccb1abe1335572361bf902bf4f3e48ffdd5",
	"facesim/bcast/n16/s0.05":       "aa093d90ae3d39efcdf6da743e379bfe81626a0244984e949bf8c9bbc3b642bb",
	"ferret/dir/n16/s0.05":          "85b1f592191271fc3ed7a02b8d4022d40065db74474c3af82a40b6797d4f5d26",
	"ferret/sp/n16/s0.05":           "50adf8088072abbd966b0ab597291426fdc6cf5d11fbcc6dc590b7602e26678a",
	"ferret/bcast/n16/s0.05":        "f01f600a4dd260d353ed701081539ee60c6887fcd4ed551fe09130a3c0e3fbea",
	"dedup/dir/n16/s0.05":           "f951b99b4c455950027d63a572b09e8546c4b0bf50d63e17d881a2e2922b1b3d",
	"dedup/sp/n16/s0.05":            "565af8b412fec842fb579bf068e525dd3ae3fed0a426bf655e7b2cbae935f66a",
	"dedup/bcast/n16/s0.05":         "7b0e57365e4afc983e91a3ea3ab91314b2a973eb8db922e6a840b33ee36f38a5",
	"x264/dir/n16/s0.05":            "3cb57183a89e93bf6cbcad38aac642fa4ff21232e62a5a946bfe97fe2fa9d0a2",
	"x264/sp/n16/s0.05":             "253d69f68bb33a9733a2ad96d9aed19c928a6e798d1801c8fd6917ab53866b22",
	"x264/bcast/n16/s0.05":          "46a466fc2a5868462bd3e2aa35b507db4e72cef3616d7ed8b64de2417f520ec4",
	"ocean/dir/n64/s0.02":           "da1301f42241856a2839bd72b0cc186e28584f792c5539815bd58d6d814c22fd",
}

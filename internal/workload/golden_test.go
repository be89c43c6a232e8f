package workload_test

// The spec migration's golden reference. The builtin profiles were once
// hand-coded builder closures; each embedded spec must still replay to the
// byte-identical op stream those produced — same PCs, sync IDs, addresses
// and build-time rng draws. If a spec or the interpreter drifts, the
// predictors' static-identity assumptions silently change; the digests
// below turn that into a hard failure.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"testing"

	"spcoh/internal/workload"
)

// programDigest returns the SHA-256 of a whole program: the name, the
// static barrier and critical-section counts, and every op of every
// thread, each field in a fixed-width little-endian encoding with lengths
// prefixed so no two programs share an encoding.
func programDigest(p *workload.Program) string {
	le := binary.LittleEndian
	b := le.AppendUint64(nil, uint64(len(p.Name)))
	b = append(b, p.Name...)
	b = le.AppendUint64(b, uint64(p.StaticBarriers))
	b = le.AppendUint64(b, uint64(p.StaticCritSections))
	b = le.AppendUint64(b, uint64(len(p.Threads)))
	for _, ops := range p.Threads {
		b = le.AppendUint64(b, uint64(len(ops)))
		for _, op := range ops {
			b = append(b, byte(op.Kind))
			b = le.AppendUint64(b, uint64(op.Addr))
			b = le.AppendUint32(b, op.N)
			b = le.AppendUint64(b, op.PC)
			b = le.AppendUint64(b, op.Sync)
		}
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestSpecOpStreamDigests pins every builtin profile's replayed op stream
// at seeds {42, 7} x threads {4, 16}, scale 0.05, to a checked-in digest.
// The digests were generated from the original hand-coded builders, so
// the pin is exactly as strong as the op-for-op comparison against them:
// a changed PC, sync ID, address, compute count or build-time rng draw in
// any op of any thread fails it. Op fields are integers, so the digests
// hold on every architecture.
func TestSpecOpStreamDigests(t *testing.T) {
	names := workload.Names()
	if n := len(names) * 4; n != len(opStreamDigests) {
		t.Errorf("%d op-stream cells but %d pinned digests", n, len(opStreamDigests))
	}
	for _, name := range names {
		prof, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, seed := range []int64{42, 7} {
			for _, threads := range []int{4, 16} {
				key := fmt.Sprintf("%s/t%d/s%d", name, threads, seed)
				p, err := workload.FromSpec(prof.Spec, threads, 0.05, seed)
				if err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				if got, want := programDigest(p), opStreamDigests[key]; got != want {
					t.Errorf("op-stream digest mismatch for %s\n\tgot: %q: %q,", key, key, got)
				}
			}
		}
	}
}

// opStreamDigests maps "<profile>/t<threads>/s<seed>" to programDigest of
// the profile's program at scale 0.05.
var opStreamDigests = map[string]string{
	"fmm/t4/s42":            "eb1f5df31f8c5fa7ec42db5d058339feff1fefc8ed2406ae22d360df24a6eafe",
	"fmm/t16/s42":           "4436cf90b964679bda70ddeae2c0b82ed9e2c90964b5f5bfe71435a0c503c0de",
	"fmm/t4/s7":             "eb1f5df31f8c5fa7ec42db5d058339feff1fefc8ed2406ae22d360df24a6eafe",
	"fmm/t16/s7":            "4436cf90b964679bda70ddeae2c0b82ed9e2c90964b5f5bfe71435a0c503c0de",
	"lu/t4/s42":             "6b0c39d86ec83ce48d0c91478a2c933f18c522cedbb029022264725039b0d4ea",
	"lu/t16/s42":            "ef20f5f5b74da2e51f6a3c1855cc40dfaffffde791566d5e36db27b4fbd0e99f",
	"lu/t4/s7":              "6b0c39d86ec83ce48d0c91478a2c933f18c522cedbb029022264725039b0d4ea",
	"lu/t16/s7":             "ef20f5f5b74da2e51f6a3c1855cc40dfaffffde791566d5e36db27b4fbd0e99f",
	"ocean/t4/s42":          "05c9ad4edbe9be08d6eb2352000126cca80fffe3ab0b5f5326fd0efa5b41e992",
	"ocean/t16/s42":         "3ebfa6c08097e734df7c5b249fbf9bf0e50bc5f5131c31c6ddebb4bf776fdb17",
	"ocean/t4/s7":           "05c9ad4edbe9be08d6eb2352000126cca80fffe3ab0b5f5326fd0efa5b41e992",
	"ocean/t16/s7":          "3ebfa6c08097e734df7c5b249fbf9bf0e50bc5f5131c31c6ddebb4bf776fdb17",
	"radiosity/t4/s42":      "decc42ba77968553153be769e8db9803a62ba2ad127bcf416b90916c4db10b4a",
	"radiosity/t16/s42":     "752f1a0c7c3721ca214e06ad496b0e2b6863773165577eb3385d3b1342612597",
	"radiosity/t4/s7":       "6ceeab8fd9fca556e068b204496526858c3da0564e64488c59c0e2bc107f3251",
	"radiosity/t16/s7":      "c54ef321a0d9f440b9d5352e198f0aa3c993259627eac56e1254b1a79fb55e9f",
	"water-ns/t4/s42":       "3e98a7fd371fb350a2f9c85be821ee11e0fc05086af3ae9a9b612a7020b78cf2",
	"water-ns/t16/s42":      "3460f02030cd41cff56cc87144d0e6ee36d0b94cd3e0de55e94aa3276289c0bc",
	"water-ns/t4/s7":        "3e98a7fd371fb350a2f9c85be821ee11e0fc05086af3ae9a9b612a7020b78cf2",
	"water-ns/t16/s7":       "3460f02030cd41cff56cc87144d0e6ee36d0b94cd3e0de55e94aa3276289c0bc",
	"cholesky/t4/s42":       "127ee29c1c2e511bb7292982acc379f737f6559380176feccb7ff321817be586",
	"cholesky/t16/s42":      "fc98f4855f9e033a3f1c7a758bb05ccc53102896f705c9fd2bece3e1af666cec",
	"cholesky/t4/s7":        "127ee29c1c2e511bb7292982acc379f737f6559380176feccb7ff321817be586",
	"cholesky/t16/s7":       "fc98f4855f9e033a3f1c7a758bb05ccc53102896f705c9fd2bece3e1af666cec",
	"fft/t4/s42":            "9664a5117646546ddb557ea92c4529cec43f99cbe58f5d8bf9e1c8a07379d1fc",
	"fft/t16/s42":           "45e10bb93c7f3c49fe00d8defc22ee549f170969bbeb3adf1fcb8199e773df36",
	"fft/t4/s7":             "9664a5117646546ddb557ea92c4529cec43f99cbe58f5d8bf9e1c8a07379d1fc",
	"fft/t16/s7":            "45e10bb93c7f3c49fe00d8defc22ee549f170969bbeb3adf1fcb8199e773df36",
	"radix/t4/s42":          "5787ba96293bbe79bde5b04487f8d52a2d5ebad209ec937ae2a80752723985f0",
	"radix/t16/s42":         "c135fede43c56d167b4b3d7876cb64b07ee411da41bd354b0ca27a55c94850a7",
	"radix/t4/s7":           "5787ba96293bbe79bde5b04487f8d52a2d5ebad209ec937ae2a80752723985f0",
	"radix/t16/s7":          "c135fede43c56d167b4b3d7876cb64b07ee411da41bd354b0ca27a55c94850a7",
	"water-sp/t4/s42":       "1d023d12a8b286bce8304eb16886116ee0b093a4958c6f923601d1b8360f3b2e",
	"water-sp/t16/s42":      "16dc33ee1293784facaa287e8303ec9a1fe120780331616ee05539ac2fbb4557",
	"water-sp/t4/s7":        "1d023d12a8b286bce8304eb16886116ee0b093a4958c6f923601d1b8360f3b2e",
	"water-sp/t16/s7":       "16dc33ee1293784facaa287e8303ec9a1fe120780331616ee05539ac2fbb4557",
	"bodytrack/t4/s42":      "34cc2a35c6d113dab444c1fde2f28eb6a04f320e58504e0291ee3b9c366f2bd8",
	"bodytrack/t16/s42":     "14ca7c4f33017fa4408f3ce400e448d18ca00f5a32909c676ebd2f484e9c2a42",
	"bodytrack/t4/s7":       "34cc2a35c6d113dab444c1fde2f28eb6a04f320e58504e0291ee3b9c366f2bd8",
	"bodytrack/t16/s7":      "14ca7c4f33017fa4408f3ce400e448d18ca00f5a32909c676ebd2f484e9c2a42",
	"fluidanimate/t4/s42":   "d5de04c025665efb64f55281fc73e46bb638df048af51fc90eb08adb9b52b274",
	"fluidanimate/t16/s42":  "99ccd3702a77dc4f70073b8a547b6641f5194c757cccc226cab23f9fbbf2ca28",
	"fluidanimate/t4/s7":    "d5de04c025665efb64f55281fc73e46bb638df048af51fc90eb08adb9b52b274",
	"fluidanimate/t16/s7":   "99ccd3702a77dc4f70073b8a547b6641f5194c757cccc226cab23f9fbbf2ca28",
	"streamcluster/t4/s42":  "3fe7aec7925fcc701d31f3d798e945eef909af0f3a7f799b7b403251ecd9b09e",
	"streamcluster/t16/s42": "cf5352fa8444910056ff9ddd4fdc5cad55c0629a7a6f8d54a356959f55e24133",
	"streamcluster/t4/s7":   "3fe7aec7925fcc701d31f3d798e945eef909af0f3a7f799b7b403251ecd9b09e",
	"streamcluster/t16/s7":  "cf5352fa8444910056ff9ddd4fdc5cad55c0629a7a6f8d54a356959f55e24133",
	"vips/t4/s42":           "2a684fe87332682235b08dddaa889ab5542e5124b32c4a1eded2111e21da7e40",
	"vips/t16/s42":          "a1b9bf6d83d877c037aa1591bbca48dc03a53d9dfbf7f47981a444a17de67416",
	"vips/t4/s7":            "2a684fe87332682235b08dddaa889ab5542e5124b32c4a1eded2111e21da7e40",
	"vips/t16/s7":           "a1b9bf6d83d877c037aa1591bbca48dc03a53d9dfbf7f47981a444a17de67416",
	"facesim/t4/s42":        "6ae22431f66b29669c4cf73c4e96c000cc3e2276cda79379532e8536ba1e5421",
	"facesim/t16/s42":       "0db78e24609d747042e98dbcbaf958adeecba0de227637c78c143e029a5978b5",
	"facesim/t4/s7":         "6ae22431f66b29669c4cf73c4e96c000cc3e2276cda79379532e8536ba1e5421",
	"facesim/t16/s7":        "0db78e24609d747042e98dbcbaf958adeecba0de227637c78c143e029a5978b5",
	"ferret/t4/s42":         "3d447fdb2ef79c4066116ea16a1ca930b0ca499d97cb2ef0e04e38dc1b52182a",
	"ferret/t16/s42":        "64115671e4b1c40b459c46117bcd9522d0cbb3180fc7b4fc4050e69e88f865db",
	"ferret/t4/s7":          "3d447fdb2ef79c4066116ea16a1ca930b0ca499d97cb2ef0e04e38dc1b52182a",
	"ferret/t16/s7":         "64115671e4b1c40b459c46117bcd9522d0cbb3180fc7b4fc4050e69e88f865db",
	"dedup/t4/s42":          "9b19875c071d6cfd1b63a2d26d079a2ac836c26742644a4d69a304f32fab7b4c",
	"dedup/t16/s42":         "ae1c8d4c57c6cef5c93eedf26a7d94b339351076be878bb46075c1520f645f7e",
	"dedup/t4/s7":           "a9b0c83d6ecd8501cbd56b76b603f09a384eed22f87946aac24c71d931588171",
	"dedup/t16/s7":          "fd9580d5443179eb5264f3dee006574f0a6f268b86694c81d5b1fc3ed4de6567",
	"x264/t4/s42":           "e3ae38995a2b845e250d39a0ccf9c08acbb86e8c33319375c3aec232376baa67",
	"x264/t16/s42":          "450f9635c45e96b6e479673a16dd683de22f7bf1166a09a00208f186aeddac04",
	"x264/t4/s7":            "e3ae38995a2b845e250d39a0ccf9c08acbb86e8c33319375c3aec232376baa67",
	"x264/t16/s7":           "450f9635c45e96b6e479673a16dd683de22f7bf1166a09a00208f186aeddac04",
}

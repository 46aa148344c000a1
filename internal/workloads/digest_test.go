package workloads

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"sort"
	"testing"

	"hornet/internal/mips"
)

// kernelImages are the images the assembler built from every registered
// kernel at its defaults, at its validated maximum parameters and at a
// few points in between, and from the Black-Scholes source the figures
// assemble directly ("blackscholes", not a registered kernel), before its
// instruction table replaced the per-mnemonic encoder. A change to the
// assembler must keep every digest.
var kernelImages = []struct {
	kernel string
	params Params
	nodes  int
	digest string
}{
	{"pingpong", nil, 2, "43e58fea2f74be662ac2e8fb790980dbb939475c167164cd2a6558cb3653159e"},
	{"pingpong", Params{"rounds": 1}, 2, "703bd3aba837dbe44ba86c8c02e0af86bcaa5803697118a0f2ae355cc80ece22"},
	{"pingpong", Params{"rounds": 40}, 16, "232dbed9fa1b111163825c40a16b36d3a6652985d43e8eef7c7c7eb76f17c2ba"},
	{"pingpong", Params{"rounds": 1_000_000}, 2, "a3b415347089e043826ba34d7914d4d05899e03e2da66b224c1e35e8f93ffc2c"},
	{"shared-pingpong", nil, 16, "6401ac387946384481b9e580a754378be47d06b2229e20f5cf4fe4c4b22d63b2"},
	{"shared-pingpong", Params{"rounds": 1}, 4, "88a8a0c5753a7aea2b8fbd95ad891a878d251247a979f94bdf4fae7309b549ae"},
	{"shared-pingpong", Params{"rounds": 40}, 64, "30f8801d513c1b25a276d44ce9b8d4978b9722a405fc4ce9a7c562c56d3761d9"},
	{"shared-pingpong", Params{"rounds": 1_000_000}, 1024, "663eb82fdd41934186745f63914e997bd1f0cdf5b61b79ac05a9625445fb87b5"},
	{"cannon", nil, 4, "46e0735bace8f73dad575c0415301916fe3b1a7473cd4bdc0e86a727d7c613ca"},
	{"cannon", Params{"q": 2, "b": 1}, 4, "4c5d28ed5e639017dff37cd26e3f74abdaf87213a29d8c7204d5cee07e898c58"},
	{"cannon", Params{"q": 4, "b": 1}, 16, "4f1a6296aad98f5bbbae81b270a675b3c8a306fd2657a68fa50b82d8bd360109"},
	{"cannon", Params{"q": 4, "b": 4}, 16, "9a93db19b0f2413249024aff662da854decc82dd67818ffff4e1d3f8d421ebbb"},
	{"cannon", Params{"q": 64, "b": 64}, 4096, "ddc0b76f133cc5c0acdc02d178115f971a4ac53d052a95d92cc345d0598f79f8"},
	{"matmul-blocked", nil, 16, "579224f0c953a5880f5c31552ae5a683fb8287ddaca9bd28d6aac0f1a9ea1363"},
	{"matmul-blocked", Params{"n": 16, "b": 8}, 4, "b947839241f07b475059d66a3620789ddc9bc6194897578b4d67e0c34707aa7a"},
	{"matmul-blocked", Params{"n": 64, "b": 64}, 1024, "567fc3fb4273f12dd17746559b0934a45561d99e67d98c44c726ebaf16692603"},
	{"matmul-blocked", Params{"n": 64, "b": 1}, 2, "8aa1e5e9888bfd8a66963d9d1f5b3252b0db3e7b6d2210a1ab4e7662c9669d9b"},
	{"reduction", nil, 4, "a4ba1be8c6a1f023c22cbbf8c9b031dec76d31b9edf1670f3db9fa12fe6d1935"},
	{"reduction", Params{"elems": 256}, 16, "e6cd09bcf15ef586b6e310f4254f6edcd28e251bd94a065cab66acc39738fd8c"},
	{"reduction", Params{"elems": 1000}, 64, "78afa2bce566c408f7dd158d9df9673e0d941bcf4dfd3a9d53f24ef6e729836c"},
	{"reduction", Params{"elems": 1 << 20}, 1024, "bf01e48775fdc0899350c17e5df9462d15b590d89c56d81735dbc39111db76f9"},
	{"blackscholes", Params{"options": 64}, 0, "c0852d2bed4b66d2e830514aa7f5836be8123857178d627cf6925f7fc39fecee"},
	{"blackscholes", Params{"options": 256}, 0, "3afd66a96ce70f7bc8711b1c016015b1fe8d5e4ab5d36bd33012404b10c2348a"},
}

// imageDigest hashes everything an image carries: the entry, the symbols
// by name and every segment's address and bytes.
func imageDigest(img *mips.Image) string {
	h := sha256.New()
	word := func(v uint32) { _ = binary.Write(h, binary.LittleEndian, v) }
	word(img.Entry)
	names := make([]string, 0, len(img.Symbols))
	for name := range img.Symbols {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		word(uint32(len(name)))
		h.Write([]byte(name))
		word(img.Symbols[name])
	}
	for _, s := range img.Segments {
		word(s.Addr)
		word(uint32(len(s.Data)))
		h.Write(s.Data)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestKernelImageDigests(t *testing.T) {
	for _, c := range kernelImages {
		src := BlackScholesSource(int(c.params["options"]), 16)
		if c.kernel != "blackscholes" {
			run, err := Spec{Kernel: c.kernel, Params: c.params}.Bind(c.nodes, registry[c.kernel].Shared)
			if err != nil {
				t.Fatalf("%s %v on %d nodes: %v", c.kernel, c.params, c.nodes, err)
			}
			src = run.Source()
		}
		img, err := mips.Assemble(src)
		if err != nil {
			t.Fatalf("%s %v: %v", c.kernel, c.params, err)
		}
		if got := imageDigest(img); got != c.digest {
			t.Errorf("%s %v on %d nodes: image digest %s, want %s", c.kernel, c.params, c.nodes, got, c.digest)
		}
	}
}

// BenchmarkAssemble assembles every kernel at its default parameters on
// four nodes.
func BenchmarkAssemble(b *testing.B) {
	for _, name := range Names() {
		k := registry[name]
		run, err := Spec{Kernel: name}.Bind(4, k.Shared)
		if err != nil {
			b.Fatal(err)
		}
		src := run.Source()
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := mips.Assemble(src); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"gofmm/internal/linalg"
	"gofmm/internal/store"
)

// The store round-trip property: across distances, tolerance regimes and
// cache precisions, SaveTo → LoadFrom (both the portable and the mmap path)
// and WriteStore → ReadStore (the stream behind gofmm.Save/Load) reproduce
// the in-memory operator bit for bit — identical Matvec and Matmat results,
// identical reinstalled plan digest. Cached operators load with no oracle
// attached; the uncached one carries no plan and evaluates through the
// interpreter once its oracle is attached, as gofmm.Load(r, K) does.
func TestStoreRoundTripProperty(t *testing.T) {
	type variant struct {
		name string
		cfg  Config
	}
	variants := []variant{
		{"angle-tol2-f64", Config{Distance: Angle, Tol: 1e-2, CacheBlocks: true}},
		{"angle-tol5-f64", Config{Distance: Angle, Tol: 1e-5, CacheBlocks: true}},
		{"kernel-tol2-f32", Config{Distance: Kernel, Tol: 1e-2, CacheBlocks: true, CacheSingle: true}},
		{"kernel-tol5-f32", Config{Distance: Kernel, Tol: 1e-5, CacheBlocks: true, CacheSingle: true}},
		// Fixed-rank regime: tolerance loose enough that MaxRank binds.
		{"angle-fixedrank-f64", Config{Distance: Angle, Tol: 1e-12, MaxRank: 12, CacheBlocks: true}},
		{"kernel-fixedrank-f32", Config{Distance: Kernel, Tol: 1e-12, MaxRank: 12, CacheBlocks: true, CacheSingle: true}},
		{"angle-tol5-uncached", Config{Distance: Angle, Tol: 1e-5}},
	}
	for _, v := range variants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			cfg := v.cfg
			cfg.LeafSize = 32
			if cfg.MaxRank == 0 {
				cfg.MaxRank = 24
			}
			cfg.Kappa = 8
			cfg.Budget = 0.1
			cfg.Exec = Sequential
			cfg.Seed = 42
			h, K := compressGauss(t, 300, cfg)
			if (h.Plan() != nil) != cfg.CacheBlocks {
				t.Fatalf("plan installed = %v with CacheBlocks = %v", h.Plan() != nil, cfg.CacheBlocks)
			}
			var wantDigest string
			if p := h.Plan(); p != nil {
				wantDigest = p.DigestHex()
			}
			var image bytes.Buffer
			if _, err := h.WriteStore(&image); err != nil {
				t.Fatal(err)
			}

			path := filepath.Join(t.TempDir(), "op.store")
			sz, err := h.SaveTo(path)
			if err != nil {
				t.Fatal(err)
			}
			st, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if st.Size() != sz {
				t.Fatalf("SaveTo reported %d bytes, file has %d", sz, st.Size())
			}

			rng := rand.New(rand.NewSource(7))
			W1 := linalg.GaussianMatrix(rng, 300, 1)
			W4 := linalg.GaussianMatrix(rng, 300, 4)
			wantVec := h.Matvec(W1)
			wantMat := h.Matmat(W4)
			wantInterp, err := h.InterpMatvecCtx(context.Background(), W1)
			if err != nil {
				t.Fatal(err)
			}

			for _, name := range []string{"open", "mmap", "stream"} {
				var h2 *Hierarchical
				var info *StoreInfo
				if name == "stream" {
					h2, info, err = ReadStore(bytes.NewReader(image.Bytes()), LoadOptions{})
				} else {
					h2, info, err = LoadFrom(path, LoadOptions{Mmap: name == "mmap"})
				}
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if h2.HasOracle() {
					t.Fatalf("%s: loaded operator claims an oracle", name)
				}
				if info.HasPlan != cfg.CacheBlocks || info.PlanDigest != wantDigest {
					t.Fatalf("%s: plan digest %q, want %q", name, info.PlanDigest, wantDigest)
				}
				if p := h2.Plan(); p != nil && p.DigestHex() != wantDigest {
					t.Fatalf("%s: reinstalled plan digest %q, want %q", name, p.DigestHex(), wantDigest)
				}
				if !cfg.CacheBlocks {
					if err := h2.AttachOracle(denseSPD{K}); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
				}
				gotVec, err := h2.MatvecCtx(context.Background(), W1)
				if err != nil {
					t.Fatalf("%s matvec: %v", name, err)
				}
				if !linalg.EqualApprox(wantVec, gotVec, 0) {
					t.Fatalf("%s: matvec not bit-identical (max |Δ| = %g)", name, maxAbsDiff(wantVec, gotVec))
				}
				gotMat, err := h2.MatmatCtx(context.Background(), W4)
				if err != nil {
					t.Fatalf("%s matmat: %v", name, err)
				}
				if !linalg.EqualApprox(wantMat, gotMat, 0) {
					t.Fatalf("%s: matmat not bit-identical (max |Δ| = %g)", name, maxAbsDiff(wantMat, gotMat))
				}
				// The interpreter path must agree too (oracle-free for the
				// cached variants, whose loaded caches are complete).
				gotInterp, err := h2.InterpMatvecCtx(context.Background(), W1)
				if err != nil {
					t.Fatalf("%s interpret: %v", name, err)
				}
				if !linalg.EqualApprox(wantInterp, gotInterp, 0) {
					t.Fatalf("%s: interpreted matvec differs", name)
				}
				if name == "mmap" && !h2.StoreMapped() {
					t.Log("mmap load fell back to portable path on this platform")
				}
				if err := h2.ReleaseStore(); err != nil {
					t.Fatalf("%s release: %v", name, err)
				}
			}
		})
	}
}

// A loaded operator without caches for some blocks must refuse evaluation
// with ErrNoOracle rather than panic or fabricate entries.
func TestStoreLoadWithoutCachesNeedsOracle(t *testing.T) {
	h, K := compressGauss(t, 200, Config{
		LeafSize: 32, MaxRank: 24, Tol: 1e-5, Kappa: 8, Budget: 0.1,
		Distance: Kernel, Exec: Sequential, Seed: 9, CacheBlocks: false,
	})
	path := filepath.Join(t.TempDir(), "nocache.store")
	if _, err := h.SaveTo(path); err != nil {
		t.Fatal(err)
	}
	h2, _, err := LoadFrom(path, LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer h2.ReleaseStore()
	if _, err := h2.MatvecCtx(context.Background(), linalg.NewMatrix(200, 1)); !errors.Is(err, ErrNoOracle) {
		t.Fatalf("uncached matvec: got %v, want ErrNoOracle", err)
	}
	if _, err := h2.CompilePlanCtx(context.Background()); !errors.Is(err, ErrNoOracle) {
		t.Fatalf("plan compile: got %v, want ErrNoOracle", err)
	}
	// Attaching the oracle restores evaluation.
	if err := h2.AttachOracle(denseSPD{K}); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(10))
	W := linalg.GaussianMatrix(rng, 200, 2)
	got, err := h2.MatvecCtx(context.Background(), W)
	if err != nil {
		t.Fatal(err)
	}
	if !linalg.EqualApprox(h.Matvec(W), got, 0) {
		t.Fatal("post-attach matvec differs")
	}
}

// Store files are untrusted input through the core bridge as well: payload
// corruption below the (checksummed) container layer must yield typed
// errors, never panics.
func TestStoreLoadRejectsCorruptPayload(t *testing.T) {
	h, _ := compressGauss(t, 200, Config{
		LeafSize: 32, MaxRank: 16, Tol: 1e-4, Kappa: 8, Budget: 0.1,
		Distance: Angle, Exec: Sequential, Seed: 13, CacheBlocks: true,
	})
	sections, err := h.storeSections()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	// Mutate each payload section in turn and rewrite the container (with
	// fresh checksums, so only the core decoder can catch it).
	for _, target := range []store.SectionKind{store.SecMeta, store.SecTopo, store.SecPlan} {
		for _, cut := range []bool{false, true} {
			mutated := make([]store.Section, len(sections))
			copy(mutated, sections)
			for i, s := range mutated {
				if s.Kind != target {
					continue
				}
				data := append([]byte(nil), s.Data...)
				if cut {
					data = data[:len(data)/2]
				} else if len(data) > 16 {
					data[16] ^= 0xFF
				}
				mutated[i] = store.Section{Kind: s.Kind, Data: data}
			}
			path := filepath.Join(dir, "corrupt.store")
			if _, err := store.WriteFile(path, mutated); err != nil {
				t.Fatal(err)
			}
			if _, _, err := LoadFrom(path, LoadOptions{Mmap: true}); err == nil {
				t.Fatalf("corrupted %v (cut=%v) loaded successfully", target, cut)
			}
		}
	}
	// Dropping the arenas while the topo still references them must fail too.
	noArena := []store.Section{sections[0], sections[1], sections[2]}
	path := filepath.Join(dir, "noarena.store")
	if _, err := store.WriteFile(path, noArena); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadFrom(path, LoadOptions{}); err == nil {
		t.Fatal("store without arenas loaded successfully")
	}

	// Targeted topo mutations on a small operator, where checking every
	// truncation offset is affordable. The topo section opens with the
	// matrix table (a count, then 32-byte prec/rows/cols/offset records),
	// followed by the length-prefixed permutation.
	_, small := smallStoreSections(t)
	topo := payload(t, small, store.SecTopo)
	numRecs := int(binary.LittleEndian.Uint64(topo))
	offPerm := 8 + 32*numRecs
	mustReject := func(t *testing.T, name string, mutated []byte) {
		t.Helper()
		err := readMustErr(t, name, withPayload(t, small, store.SecTopo, mutated))
		if err != nil && !errors.Is(err, store.ErrBadStore) {
			t.Errorf("%s: got %v, want store.ErrBadStore", name, err)
		}
	}
	t.Run("non-permutation perm", func(t *testing.T) {
		// perm[1] = perm[0]: still in range, no longer a permutation.
		p0 := int64(binary.LittleEndian.Uint64(topo[offPerm+8:]))
		mustReject(t, "duplicate perm entry", patchI64(topo, offPerm+16, p0))
		mustReject(t, "huge perm length", patchI64(topo, offPerm, 1<<40))
		mustReject(t, "negative perm length", patchI64(topo, offPerm, -2))
		mustReject(t, "short perm", patchI64(topo, offPerm, 3))
		mustReject(t, "perm index out of range", patchI64(topo, offPerm+8, 96))
		mustReject(t, "negative perm index", patchI64(topo, offPerm+8, -1))
	})
	t.Run("huge matrix record", func(t *testing.T) {
		// Record 0 claims a 2^30×2^30 matrix: the bound check must fire
		// before anything is sized by the claim.
		mustReject(t, "huge matrix claim", patchI64(patchI64(topo, 16, 1<<30), 24, 1<<30))
		mustReject(t, "huge record count", patchI64(topo, 0, 1<<40))
	})
	t.Run("topo truncation at every offset", func(t *testing.T) {
		for cut := 0; cut < len(topo); cut++ {
			mustReject(t, "truncated topo", topo[:cut])
		}
	})
}

// Saving must refuse an uncompressed operator instead of writing an empty
// container.
func TestSaveToRejectsUncompressed(t *testing.T) {
	h := &Hierarchical{K: noOracle{n: 10}}
	if _, err := h.SaveTo(filepath.Join(t.TempDir(), "x.store")); err == nil {
		t.Fatal("expected error saving uncompressed operator")
	}
	if _, err := h.WriteStore(io.Discard); err == nil {
		t.Fatal("expected error streaming uncompressed operator")
	}
}

// WriteStore streams the same bytes SaveTo lands on disk: the container is
// deterministic for a given operator, so the two paths must agree exactly.
func TestWriteStoreMatchesSaveTo(t *testing.T) {
	cfg := Config{
		LeafSize: 32, MaxRank: 16, Tol: 1e-3, Kappa: 8, Budget: 0.1,
		Distance: Angle, Exec: Sequential, NumWorkers: 1, Seed: 7,
		CacheBlocks: true,
	}
	h, _ := compressGauss(t, 200, cfg)
	path := filepath.Join(t.TempDir(), "w.store")
	if _, err := h.SaveTo(path); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	n, err := h.WriteStore(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteStore returned %d, wrote %d bytes", n, buf.Len())
	}
	if !bytes.Equal(want, buf.Bytes()) {
		t.Fatal("WriteStore bytes differ from SaveTo file")
	}
}

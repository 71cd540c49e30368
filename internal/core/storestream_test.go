package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"testing"

	"gofmm/internal/linalg"
	"gofmm/internal/resilience"
	"gofmm/internal/store"
)

// The operator store as a stream: WriteStore → ReadStore (+ AttachOracle),
// the path behind gofmm.Save/Load. The stream is untrusted input — every
// malformed image must come back as a typed error, never a panic and never
// an allocation sized by an unvalidated length field.

// Meta-section layout (bytes): payload version, n, leaf, maxRank, kappa,
// sampleRows, seed, distance (int64 each), tol, budget (float64), then the
// cacheBlocks and cacheSingle booleans.
const (
	metaOffVersion = 0
	metaOffN       = 8
	metaOffLeaf    = 16
	metaOffDist    = 56
	metaOffTol     = 64
	metaOffCache   = 80
)

// readBack round-trips h through WriteStore and ReadStore, attaching K when
// non-nil.
func readBack(t *testing.T, h *Hierarchical, K SPD) *Hierarchical {
	t.Helper()
	var buf bytes.Buffer
	n, err := h.WriteStore(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteStore reported %d bytes, buffer has %d", n, buf.Len())
	}
	h2, _, err := ReadStore(&buf, LoadOptions{Exec: Sequential})
	if err != nil {
		t.Fatal(err)
	}
	if K != nil {
		if err := h2.AttachOracle(K); err != nil {
			t.Fatal(err)
		}
	}
	return h2
}

// smallStoreSections compresses a small cached operator (plan installed) and
// returns it with its store sections.
func smallStoreSections(t testing.TB) (*Hierarchical, []store.Section) {
	t.Helper()
	rng := rand.New(rand.NewSource(109))
	K, X := gaussKernelMatrix(rng, 96, 0.8)
	h, err := Compress(denseSPD{K}, Config{
		LeafSize: 32, Kappa: 8, Budget: 0.1, Distance: Kernel,
		Exec: Sequential, Seed: 109, Tol: 1e-5, CacheBlocks: true, Points: X,
	})
	if err != nil {
		t.Fatal(err)
	}
	sections, err := h.storeSections()
	if err != nil {
		t.Fatal(err)
	}
	return h, sections
}

// withPayload re-encodes the container with kind's payload replaced. The
// container checksums are recomputed, so only the core decoder can reject
// the mutation.
func withPayload(t testing.TB, sections []store.Section, kind store.SectionKind, data []byte) []byte {
	t.Helper()
	out := make([]store.Section, len(sections))
	copy(out, sections)
	for i := range out {
		if out[i].Kind == kind {
			out[i].Data = data
		}
	}
	var buf bytes.Buffer
	if _, err := store.Write(&buf, out); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// payload returns kind's section payload.
func payload(t testing.TB, sections []store.Section, kind store.SectionKind) []byte {
	t.Helper()
	for _, s := range sections {
		if s.Kind == kind {
			return s.Data
		}
	}
	t.Fatalf("no %v section", kind)
	return nil
}

// patchI64 returns a copy of b with the little-endian int64 at off set to v.
func patchI64(b []byte, off int, v int64) []byte {
	out := append([]byte(nil), b...)
	binary.LittleEndian.PutUint64(out[off:], uint64(v))
	return out
}

// readMustErr runs ReadStore on data and requires a typed error; a panic
// becomes a test failure rather than crashing the suite.
func readMustErr(t *testing.T, name string, data []byte) (err error) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Errorf("%s: ReadStore panicked: %v", name, r)
			err = errors.New("panicked")
		}
	}()
	_, _, err = ReadStore(bytes.NewReader(data), LoadOptions{})
	if err == nil {
		t.Errorf("%s: ReadStore accepted a malformed store", name)
	} else if !errors.Is(err, resilience.ErrInvalidInput) {
		t.Errorf("%s: error %v does not wrap ErrInvalidInput", name, err)
	}
	return err
}

func TestSerializeRoundTrip(t *testing.T) {
	h, K := compressGauss(t, 300, Config{
		LeafSize: 32, MaxRank: 24, Tol: 1e-6, Kappa: 8, Budget: 0.1,
		Distance: Kernel, Exec: Sequential, Seed: 101, CacheBlocks: true,
	})
	h2 := readBack(t, h, denseSPD{K})
	if h2.Plan() == nil || h2.Plan().DigestHex() != h.Plan().DigestHex() {
		t.Fatal("compiled plan did not survive the round trip")
	}
	rng := rand.New(rand.NewSource(102))
	W := linalg.GaussianMatrix(rng, 300, 3)
	U1 := h.Matvec(W)
	U2 := h2.Matvec(W)
	if !linalg.EqualApprox(U1, U2, 0) {
		t.Fatalf("round-trip matvec differs (max |Δ| = %g)", maxAbsDiff(U1, U2))
	}
	// Structure restored.
	for id := range h.nodes {
		if h.Rank(id) != h2.Rank(id) {
			t.Fatalf("rank mismatch at node %d", id)
		}
		if len(h.NearList(id)) != len(h2.NearList(id)) || len(h.FarList(id)) != len(h2.FarList(id)) {
			t.Fatalf("lists mismatch at node %d", id)
		}
	}
}

func TestSerializeWithoutCaches(t *testing.T) {
	h, K := compressGauss(t, 200, Config{
		LeafSize: 32, MaxRank: 24, Tol: 1e-6, Kappa: 8, Budget: 0.1,
		Distance: Angle, Exec: Sequential, Seed: 103, CacheBlocks: false,
	})
	h2 := readBack(t, h, denseSPD{K})
	if h2.Plan() != nil {
		t.Fatal("an uncached operator loaded with a plan")
	}
	rng := rand.New(rand.NewSource(104))
	W := linalg.GaussianMatrix(rng, 200, 2)
	if !linalg.EqualApprox(h.Matvec(W), h2.Matvec(W), 0) {
		t.Fatal("cache-less round trip differs")
	}
}

// The store keeps single-precision caches as they are, so a CacheSingle
// operator reloads bit-identically.
func TestSerializeWithSingleCache(t *testing.T) {
	rng := rand.New(rand.NewSource(210))
	Kd, _ := gaussKernelMatrix(rng, 300, 0.8)
	h, err := Compress(denseSPD{Kd}, Config{
		LeafSize: 32, MaxRank: 24, Tol: 1e-7, Kappa: 8, Budget: 0.1,
		Distance: Kernel, Exec: Sequential, Seed: 211, CacheBlocks: true,
		CacheSingle: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	h2 := readBack(t, h, denseSPD{Kd})
	W := linalg.GaussianMatrix(rng, 300, 2)
	U1 := h.Matvec(W)
	U2 := h2.Matvec(W)
	if !linalg.EqualApprox(U1, U2, 0) {
		t.Fatalf("fp32-cached vs reloaded differ (max |Δ| = %g)", maxAbsDiff(U1, U2))
	}
}

// TestSerializeRoundTripsDenseFallback checks the per-node degradation flag
// survives a save/load cycle.
func TestSerializeRoundTripsDenseFallback(t *testing.T) {
	h, K := compressGauss(t, 128, Config{
		LeafSize: 32, Kappa: 8, Budget: 0.1, Distance: Kernel,
		Exec: Sequential, Seed: 112, Tol: 1e-5,
	})
	// Force a flag on one node to exercise the field independent of whether
	// this problem naturally degrades.
	h.nodes[1].denseFallback = true
	h2 := readBack(t, h, denseSPD{K})
	for id := range h.nodes {
		if h.nodes[id].denseFallback != h2.nodes[id].denseFallback {
			t.Fatalf("denseFallback flag lost at node %d", id)
		}
	}
}

// ReadStore with no oracle attached (the serving workflow) must evaluate
// from the cached blocks and type-fail the oracle-requiring paths.
func TestReadStoreNilOracle(t *testing.T) {
	h, _ := compressGauss(t, 200, Config{
		LeafSize: 32, MaxRank: 24, Tol: 1e-5, Kappa: 8, Budget: 0.1,
		Distance: Angle, Exec: Sequential, Seed: 11, CacheBlocks: true,
	})
	h2 := readBack(t, h, nil)
	if h2.HasOracle() {
		t.Fatal("nil-oracle load claims an oracle")
	}
	rng := rand.New(rand.NewSource(12))
	W := linalg.GaussianMatrix(rng, 200, 2)
	got, err := h2.MatvecCtx(context.Background(), W)
	if err != nil {
		t.Fatal(err)
	}
	if !linalg.EqualApprox(h.Matvec(W), got, 0) {
		t.Fatal("oracle-free matvec differs")
	}
	if err := h2.AttachOracle(nil); !errors.Is(err, ErrNoOracle) {
		t.Fatalf("AttachOracle(nil): got %v", err)
	}
}

func TestReadStoreRejectsGarbage(t *testing.T) {
	_, _, err := ReadStore(bytes.NewReader([]byte("not a gofmm file at all")), LoadOptions{})
	if !errors.Is(err, store.ErrBadStore) {
		t.Fatalf("expected store.ErrBadStore, got %v", err)
	}
}

func TestReadStoreRejectsWrongDimension(t *testing.T) {
	h, _ := compressGauss(t, 200, Config{
		LeafSize: 32, Kappa: 8, Budget: 0, Distance: Kernel,
		Exec: Sequential, Seed: 106, Tol: 1e-5,
	})
	h2 := readBack(t, h, nil)
	rng := rand.New(rand.NewSource(107))
	wrong := linalg.RandomSPD(rng, 50, 10)
	if err := h2.AttachOracle(denseSPD{wrong}); err == nil {
		t.Fatal("expected dimension mismatch error")
	}
}

func TestReadStoreTruncated(t *testing.T) {
	h, _ := compressGauss(t, 200, Config{
		LeafSize: 32, Kappa: 8, Budget: 0.1, Distance: Kernel,
		Exec: Sequential, Seed: 108, Tol: 1e-5,
	})
	var buf bytes.Buffer
	if _, err := h.WriteStore(&buf); err != nil {
		t.Fatal(err)
	}
	readMustErr(t, "truncated", buf.Bytes()[:buf.Len()/2])
}

// TestReadStoreAdversarialMeta patches the meta section field by field and
// re-checksums the container: every out-of-range value must be rejected by
// the payload decoder.
func TestReadStoreAdversarialMeta(t *testing.T) {
	_, sections := smallStoreSections(t)
	meta := payload(t, sections, store.SecMeta)
	withByte := func(off int, v byte) []byte {
		out := append([]byte(nil), meta...)
		out[off] = v
		return out
	}
	cases := []struct {
		name string
		meta []byte
	}{
		{"version 0", patchI64(meta, metaOffVersion, 0)},
		{"future version", patchI64(meta, metaOffVersion, 99)},
		{"zero dimension", patchI64(meta, metaOffN, 0)},
		{"negative dimension", patchI64(meta, metaOffN, -96)},
		{"huge dimension", patchI64(meta, metaOffN, 1<<40)},
		{"other dimension", patchI64(meta, metaOffN, 97)},
		{"zero leaf", patchI64(meta, metaOffLeaf, 0)},
		{"leaf exceeds n", patchI64(meta, metaOffLeaf, 97)},
		{"unknown distance", patchI64(meta, metaOffDist, 99)},
		{"NaN tolerance", patchI64(meta, metaOffTol, int64(math.Float64bits(math.NaN())))},
		{"Inf tolerance", patchI64(meta, metaOffTol, int64(math.Float64bits(math.Inf(1))))},
		{"non-boolean flag", withByte(metaOffCache, 7)},
		{"trailing bytes", append(append([]byte(nil), meta...), 0)},
		{"truncated", meta[:len(meta)-1]},
	}
	for _, tc := range cases {
		readMustErr(t, tc.name, withPayload(t, sections, store.SecMeta, tc.meta))
	}
}

// TestReadStoreRandomCorruption flips bytes all over valid images: the
// container checksums catch nearly all of it, and whatever gets through
// must still fail cleanly — never panic.
func TestReadStoreRandomCorruption(t *testing.T) {
	h, _ := smallStoreSections(t)
	var buf bytes.Buffer
	if _, err := h.WriteStore(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	rng := rand.New(rand.NewSource(111))
	for trial := 0; trial < 200; trial++ {
		mut := append([]byte(nil), data...)
		for k := 0; k < 1+rng.Intn(4); k++ {
			mut[rng.Intn(len(mut))] ^= byte(1 + rng.Intn(255))
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("trial %d: ReadStore panicked on a corrupted image: %v", trial, r)
				}
			}()
			_, _, _ = ReadStore(bytes.NewReader(mut), LoadOptions{})
		}()
	}
}

// FuzzStorePayload replaces the meta, topo or plan payload of a compiled
// operator's store with fuzzed bytes, re-checksums the container through
// store.Write and loads it. A load must return an error or an operator
// whose evaluation is finite (or a typed ErrNoOracle when the mutated
// topology drops a cache) — never a panic.
func FuzzStorePayload(f *testing.F) {
	_, sections := smallStoreSections(f)
	kinds := []store.SectionKind{store.SecMeta, store.SecTopo, store.SecPlan}
	for i, k := range kinds {
		f.Add(uint8(i), payload(f, sections, k))
	}
	f.Fuzz(func(t *testing.T, which uint8, data []byte) {
		image := withPayload(t, sections, kinds[int(which)%len(kinds)], data)
		h2, _, err := ReadStore(bytes.NewReader(image), LoadOptions{Exec: Sequential})
		if err != nil {
			if !errors.Is(err, resilience.ErrInvalidInput) {
				t.Fatalf("untyped load error: %v", err)
			}
			return
		}
		W := linalg.GaussianMatrix(rand.New(rand.NewSource(113)), h2.N(), 2)
		U, err := h2.MatvecCtx(context.Background(), W)
		if errors.Is(err, ErrNoOracle) {
			return
		}
		if err != nil {
			t.Fatalf("loaded operator failed to evaluate: %v", err)
		}
		for j := 0; j < U.Cols; j++ {
			for i, v := range U.Col(j) {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("non-finite output %v at (%d,%d)", v, i, j)
				}
			}
		}
	})
}

package workspace

import (
	"testing"

	"gofmm/internal/telemetry"
)

func TestGetZeroedAndSized(t *testing.T) {
	p := New()
	for _, n := range []int{1, 7, 255, 256, 257, 5000, 1 << 16} {
		buf := p.Get(n)
		if len(buf) != n {
			t.Fatalf("Get(%d) returned len %d", n, len(buf))
		}
		for i := range buf {
			buf[i] = 1 // dirty it
		}
		p.Put(buf)
	}
	// Second round must come back zeroed despite the dirtying above.
	for _, n := range []int{1, 7, 255, 256, 257, 5000, 1 << 16} {
		buf := p.Get(n)
		for i, v := range buf {
			if v != 0 {
				t.Fatalf("Get(%d) buffer not zeroed at %d", n, i)
			}
		}
	}
}

func TestPoolReusesBuffers(t *testing.T) {
	// sync.Pool may drop any Put (the race runtime does so at random), so
	// reuse is a property of a bounded loop, not of one Put/Get pair.
	p := New()
	const maxRounds = 64
	rounds, reused := 0, false
	for rounds < maxRounds && !reused {
		a := p.Get(1000)
		p.Put(a)
		b := p.Get(900) // same class (1024): the recycled buffer when kept
		reused = &a[0] == &b[0]
		rounds++
	}
	if !reused {
		t.Fatalf("no buffer reuse within a size class in %d Put/Get rounds", rounds)
	}
	st := p.Stats()
	if st.Hits < 1 || st.Hits+st.Misses != int64(2*rounds) || st.Returns != int64(rounds) {
		t.Fatalf("stats = %+v after %d rounds, want ≥1 hit, %d gets, %d returns", st, rounds, 2*rounds, rounds)
	}
	if st.BytesReused != st.Hits*1024*8 {
		t.Fatalf("BytesReused = %d, want %d per hit", st.BytesReused, 1024*8)
	}
}

func TestPutOddCapacityIsSafe(t *testing.T) {
	p := New()
	// A 1500-cap buffer files under the 1024 class; a later Get(1024) must
	// still have enough capacity.
	p.Put(make([]float64, 1500))
	buf := p.Get(1024)
	if len(buf) != 1024 {
		t.Fatalf("len = %d", len(buf))
	}
	// Tiny buffers are dropped, not filed.
	p.Put(make([]float64, 3))
	small := p.Get(3)
	if len(small) != 3 {
		t.Fatalf("len = %d", len(small))
	}
}

func TestNilPoolDegradesToAlloc(t *testing.T) {
	var p *Pool
	buf := p.Get(100)
	if len(buf) != 100 {
		t.Fatalf("nil pool Get broken")
	}
	p.Put(buf)
	M := p.GetMatrix(4, 5)
	if M.Rows != 4 || M.Cols != 5 {
		t.Fatalf("nil pool GetMatrix broken")
	}
	p.PutMatrix(M)
	if st := p.Stats(); st != (Stats{}) {
		t.Fatalf("nil pool stats = %+v", st)
	}
	s := p.NewScope()
	if N := s.Matrix(2, 2); N.Rows != 2 {
		t.Fatalf("nil pool scope broken")
	}
	s.Release()
}

func TestScopeReleaseAndKeep(t *testing.T) {
	// Whether sync.Pool hands a returned buffer back out is not part of the
	// contract (the race runtime drops Puts at random); what the scope
	// returns is, and Stats().Returns counts it.
	p := New()
	s := p.NewScope()
	s.Matrix(40, 40) // A: released with the scope
	B := s.Matrix(40, 40)
	s.Keep(B)
	s.Release()
	if got := p.Stats().Returns; got != 1 {
		t.Fatalf("Returns = %d after Release, want 1 (A only, not the kept B)", got)
	}
	s.Release() // the scope is empty now: A is not returned twice
	if got := p.Stats().Returns; got != 1 {
		t.Fatalf("Returns = %d after a second Release, want 1", got)
	}
	only := p.NewScope()
	only.Keep(only.Matrix(40, 40))
	only.Release()
	if got := p.Stats().Returns; got != 1 {
		t.Fatalf("Returns = %d after releasing a scope whose only matrix was kept, want 1", got)
	}
}

func TestTelemetryCounters(t *testing.T) {
	p := New()
	pre := p.Get(600) // traffic before attach must be carried over
	p.Put(pre)
	rec := telemetry.New()
	p.AttachTelemetry(rec)
	buf := p.Get(600)
	p.Put(buf)
	if got := rec.Counter("workspace.hits").Value(); got != p.Stats().Hits {
		t.Fatalf("workspace.hits = %d, pool hits = %d", got, p.Stats().Hits)
	}
	if got := rec.Counter("workspace.misses").Value(); got != p.Stats().Misses {
		t.Fatalf("workspace.misses = %d, pool misses = %d", got, p.Stats().Misses)
	}
	if got := rec.Counter("workspace.returns").Value(); got != 2 {
		t.Fatalf("workspace.returns = %d, want 2", got)
	}
	if got := rec.Counter("workspace.bytes_reused").Value(); got != p.Stats().BytesReused {
		t.Fatalf("workspace.bytes_reused = %d, want %d", got, p.Stats().BytesReused)
	}
}

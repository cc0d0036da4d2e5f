package parallel

import (
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestForCoversRangeExactlyOnce(t *testing.T) {
	for _, n := range []int{0, 1, 7, 100, 10000, 131071} {
		marks := make([]int32, n)
		Default().For(n, 64, func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&marks[i], 1)
			}
		})
		for i, m := range marks {
			if m != 1 {
				t.Fatalf("n=%d: index %d visited %d times", n, i, m)
			}
		}
	}
}

func TestForDefaultGrain(t *testing.T) {
	var total atomic.Int64
	Default().For(100000, 0, func(_, lo, hi int) {
		total.Add(int64(hi - lo))
	})
	if got := total.Load(); got != 100000 {
		t.Errorf("covered %d indices, want 100000", got)
	}
}

func TestForNegativeAndZero(t *testing.T) {
	called := false
	Default().For(0, 10, func(_, lo, hi int) { called = true })
	Default().For(-5, 10, func(_, lo, hi int) { called = true })
	if called {
		t.Error("For called fn for empty range")
	}
}

func TestForChunkBounds(t *testing.T) {
	Default().For(1000, 64, func(_, lo, hi int) {
		if lo < 0 || hi > 1000 || lo >= hi {
			t.Errorf("bad chunk [%d, %d)", lo, hi)
		}
		if hi-lo > 64 {
			t.Errorf("chunk [%d, %d) exceeds grain", lo, hi)
		}
	})
}

func TestBitsetBasic(t *testing.T) {
	b := NewBitset(200)
	if b.Len() != 200 {
		t.Fatalf("Len = %d", b.Len())
	}
	b.Set(0)
	b.Set(63)
	b.Set(64)
	b.Set(199)
	for _, i := range []int{0, 63, 64, 199} {
		if !b.Get(i) {
			t.Errorf("bit %d not set", i)
		}
	}
	if b.Get(1) || b.Get(100) {
		t.Error("unexpected bit set")
	}
	if got := b.Count(); got != 4 {
		t.Errorf("Count = %d, want 4", got)
	}
	b.Reset()
	if got := b.Count(); got != 0 {
		t.Errorf("Count after Reset = %d", got)
	}
}

func TestBitsetAtomicSetClaimsOnce(t *testing.T) {
	const n = 1 << 14
	b := NewBitset(n)
	var claims atomic.Int64
	// Every index is attempted by multiple chunks; AtomicSet must grant
	// exactly one claim per index.
	const attempts = 4
	done := make(chan struct{}, attempts)
	for a := 0; a < attempts; a++ {
		go func() {
			for i := 0; i < n; i++ {
				if b.AtomicSet(i) {
					claims.Add(1)
				}
			}
			done <- struct{}{}
		}()
	}
	for a := 0; a < attempts; a++ {
		<-done
	}
	if got := claims.Load(); got != n {
		t.Errorf("claims = %d, want %d", got, n)
	}
	if got := b.Count(); got != n {
		t.Errorf("Count = %d, want %d", got, n)
	}
}

func TestBitsetGetAfterAtomicSet(t *testing.T) {
	b := NewBitset(128)
	if b.Get(77) {
		t.Error("fresh bit set")
	}
	b.AtomicSet(77)
	if !b.Get(77) {
		t.Error("bit lost")
	}
}

func TestBitsetCountMatchesSets(t *testing.T) {
	f := func(idxs []uint16) bool {
		b := NewBitset(1 << 16)
		distinct := map[uint16]bool{}
		for _, i := range idxs {
			b.Set(int(i))
			distinct[i] = true
		}
		return b.Count() == len(distinct)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestCounter(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	c := p.NewCounter()
	p.For(10000, 16, func(w, lo, hi int) {
		for i := lo; i < hi; i++ {
			c.Add(w, 1)
		}
	})
	if got := c.Sum(); got != 10000 {
		t.Errorf("Sum = %d, want 10000", got)
	}
	c.Reset()
	if got := c.Sum(); got != 0 {
		t.Errorf("Sum after Reset = %d", got)
	}
}

// TestCounterShardSpread pins the Counter.Add contract: distinct worker
// IDs in [0, shards) hit distinct shards. Chunk offsets (multiples of the
// grain) used to be passed as keys and could all alias to shard 0.
func TestCounterShardSpread(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	c := p.NewCounter()
	for w := 0; w < 4; w++ {
		c.Add(w, 1)
	}
	for i := range c.shards {
		if got := c.shards[i].v.Load(); got != 1 {
			t.Errorf("shard %d holds %d, want 1 (worker IDs must not collide)", i, got)
		}
	}
}

func BenchmarkForSum(b *testing.B) {
	data := make([]int64, 1<<20)
	for i := range data {
		data[i] = int64(i)
	}
	p := Default()
	c := p.NewCounter()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Reset()
		p.For(len(data), 1<<14, func(w, lo, hi int) {
			var local int64
			for j := lo; j < hi; j++ {
				local += data[j]
			}
			c.Add(w, local)
		})
		_ = c.Sum()
	}
}

func BenchmarkBitsetAtomicSet(b *testing.B) {
	bs := NewBitset(1 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bs.AtomicSet(i & (1<<20 - 1))
	}
}

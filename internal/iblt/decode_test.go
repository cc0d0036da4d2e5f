package iblt

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"slices"
	"testing"
	"time"

	"repro/internal/parallel"
)

// setDigest is "count:fnv64a" over the sorted keys — a compact golden
// value for a recovered set.
func setDigest(keys []uint64) string {
	s := slices.Clone(keys)
	slices.Sort(s)
	h := fnv.New64a()
	var b [8]byte
	for _, k := range s {
		binary.LittleEndian.PutUint64(b[:], k)
		h.Write(b[:])
	}
	return fmt.Sprintf("%d:%016x", len(s), h.Sum64())
}

// TestParallelDecodeGolden pins both parallel decoders at one worker to
// values recorded from the two separate decode loops they replaced: the
// recovered sets, the round and subround counts, and completeness, on
// difference tables below and above c*(2,r) at r = 3 and r = 4. Do not
// regenerate these values; a mismatch means the shared loop changed
// what a decode computes.
func TestParallelDecodeGolden(t *testing.T) {
	golden := []struct {
		r                 int
		load              float64
		frontier          bool
		added, removed    string
		rounds, subrounds int
		complete          bool
	}{
		{3, 0.75, false, "1800:c437b39bc447a8ad", "1800:496c13f45dbba6a0", 8, 24, true},
		{3, 0.75, true, "1800:c437b39bc447a8ad", "1800:496c13f45dbba6a0", 8, 24, true},
		{3, 0.85, false, "922:cf4ca2f0b76804c3", "993:3b7ac540e8ec492a", 13, 37, false},
		{3, 0.85, true, "922:cf4ca2f0b76804c3", "993:3b7ac540e8ec492a", 13, 37, false},
		{4, 0.75, false, "1800:55edac995bbe71cd", "1800:b48d8101b5630ed8", 10, 39, true},
		{4, 0.75, true, "1800:55edac995bbe71cd", "1800:b48d8101b5630ed8", 10, 39, true},
		{4, 0.85, false, "411:59b375be5b820d07", "423:0be0dd5bf87c1b87", 6, 23, false},
		{4, 0.85, true, "411:59b375be5b820d07", "423:0be0dd5bf87c1b87", 6, 23, false},
	}
	pool := parallel.NewPool(1)
	defer pool.Close()
	const cells = 4800
	for _, g := range golden {
		// A difference table: 1000 shared keys cancel, load·cells keys
		// remain, half on each side.
		diff := int(g.load * cells)
		seed := uint64(1000*g.r) + uint64(100*g.load)
		common := randomKeys(1000, seed+1)
		onlyA := randomKeys(diff/2, seed+2)
		onlyB := randomKeys(diff-diff/2, seed+3)
		ta, tb := New(cells, g.r, seed), New(cells, g.r, seed)
		for _, k := range common {
			ta.Insert(k)
			tb.Insert(k)
		}
		for _, k := range onlyA {
			ta.Insert(k)
		}
		for _, k := range onlyB {
			tb.Insert(k)
		}
		ta.Subtract(tb)

		res := decodeOn(ta, pool, g.frontier)
		got := fmt.Sprint(setDigest(res.Added), setDigest(res.Removed), res.Rounds, res.Subrounds, res.Complete)
		want := fmt.Sprint(g.added, g.removed, g.rounds, g.subrounds, g.complete)
		if got != want {
			t.Errorf("r=%d load=%v frontier=%v: got %s, want %s", g.r, g.load, g.frontier, got, want)
		}
	}
}

// hostileTable returns the smallest table (48 cells, r = 3: 1,176 wire
// bytes) holding key x at +1 in its subtable-0 cell with every other
// cell empty. Recovering x deletes it from three cells, which leaves it
// pure at −1 in the other two; recovering that puts it back at +1, and
// so on: without the recovery cap no decoder ever finishes.
func hostileTable(t *testing.T, x uint64) *Table {
	t.Helper()
	tbl := New(48, 3, 5)
	c := tbl.cellIndex(x, 0)
	tbl.count[c], tbl.keySum[c], tbl.checkSum[c] = 1, x, tbl.checksum(x)
	if b, err := tbl.MarshalBinary(); err != nil || len(b) != 1176 {
		t.Fatalf("hostile table marshals to %d bytes (err %v), want 1176", len(b), err)
	}
	return tbl
}

func TestDecodeStopsOnHostileTable(t *testing.T) {
	tbl := hostileTable(t, 0xfeed)
	added, removed, ok := tbl.Decode()
	if ok {
		t.Error("hostile table reported as decoded")
	}
	if n := len(added) + len(removed); n != tbl.Cells() {
		t.Errorf("Decode made %d recoveries, want it to stop at Cells() = %d", n, tbl.Cells())
	}
}

func TestDecodeParallelStopsOnHostileTable(t *testing.T) {
	testParallelHostile(t, false)
}

func TestDecodeParallelFrontierStopsOnHostileTable(t *testing.T) {
	testParallelHostile(t, true)
}

// testParallelHostile decodes the hostile table at one and two workers
// under a generous deadline: the decode must end on its own, before the
// deadline, after exactly Cells() recoveries (one per subround here),
// and report the table incomplete.
func testParallelHostile(t *testing.T, frontier bool) {
	for _, w := range []int{1, 2} {
		pool := parallel.NewPool(w)
		tbl := hostileTable(t, 0xfeed)
		decode := tbl.DecodeParallelCtx
		if frontier {
			decode = tbl.DecodeParallelFrontierCtx
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		res, err := decode(ctx, pool)
		cancel()
		pool.Close()
		if err != nil {
			t.Fatalf("W=%d: decode did not finish on its own: %v", w, err)
		}
		if res.Complete {
			t.Errorf("W=%d: hostile table reported complete", w)
		}
		if n := len(res.Added) + len(res.Removed); n != tbl.Cells() {
			t.Errorf("W=%d: %d recoveries, want the cap Cells() = %d", w, n, tbl.Cells())
		}
	}
}

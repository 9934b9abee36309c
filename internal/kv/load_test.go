package kv

import (
	"bytes"
	"fmt"
	"sort"
	"testing"

	"mrdb/internal/mvcc"
	"mrdb/internal/sim"
	"mrdb/internal/simnet"
)

// TestSplitKeyOutlivesLaterSamples: once a range's sample ring is full, a
// sample reuses the oldest slot's array, and SplitKey still picks the median
// of the last loadSampleSize keys in the span, as it did when every sample
// was a copy of its own; the key it returned is unchanged by the samples
// recorded after it.
func TestSplitKeyOutlivesLaterSamples(t *testing.T) {
	lt := NewRangeLoadTracker(sim.New(1), 0)
	const id = RangeID(7)
	start, end := mvcc.Key("k/"), mvcc.Key("k/~")
	var recorded []mvcc.Key
	record := func(k string) {
		recorded = append(recorded, mvcc.Key(k))
		lt.Record(id, mvcc.Key(k), simnet.USEast1, 1)
	}
	// want is the median of the last loadSampleSize keys recorded that lie
	// strictly inside (start, end).
	want := func() mvcc.Key {
		var in []mvcc.Key
		for _, k := range recorded[max(0, len(recorded)-loadSampleSize):] {
			if bytes.Compare(k, start) > 0 && bytes.Compare(k, end) < 0 {
				in = append(in, k)
			}
		}
		sort.Slice(in, func(i, j int) bool { return bytes.Compare(in[i], in[j]) < 0 })
		return in[len(in)/2]
	}
	for i := 0; i < 3*loadSampleSize; i++ {
		// Keys of several lengths, some outside the span, in no order.
		switch i % 5 {
		case 0:
			record(fmt.Sprintf("a/%d", i))
		case 1:
			record(fmt.Sprintf("k/%04d", (i*37)%1000))
		default:
			record(fmt.Sprintf("k/%02d/%d", (i*11)%97, i))
		}
	}
	got := lt.SplitKey(id, start, end)
	if !bytes.Equal(got, want()) {
		t.Fatalf("SplitKey = %q, want %q, the median of the last %d samples in the span", got, want(), loadSampleSize)
	}
	kept := string(got)
	for i := 0; i < 2*loadSampleSize; i++ {
		// No longer than any key before, so each fits its slot's array.
		record(fmt.Sprintf("k/%02d", i%100))
	}
	if string(got) != kept {
		t.Fatalf("a split key read %q, then %q after later samples: it shares a sample's array", kept, got)
	}
	if later := lt.SplitKey(id, start, end); !bytes.Equal(later, want()) {
		t.Fatalf("SplitKey after later samples = %q, want %q", later, want())
	}
}

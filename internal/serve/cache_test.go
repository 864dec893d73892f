package serve

import (
	"testing"

	"selflearn/internal/ml/forest"
)

func TestLRUEvictionOrder(t *testing.T) {
	var evicted []string
	c := newLRU[int](2, func(k string, _ int) { evicted = append(evicted, k) })
	c.Put("a", 1)
	c.Put("b", 2)
	c.Put("c", 3) // evicts a
	if len(evicted) != 1 || evicted[0] != "a" {
		t.Fatalf("evicted %v, want [a]", evicted)
	}
	if _, ok := c.Get("a"); ok {
		t.Fatal("a still present after eviction")
	}
	if v, ok := c.Get("b"); !ok || v != 2 {
		t.Fatalf("Get(b) = %d, %v", v, ok)
	}
	// b is now most recent; inserting d must evict c.
	c.Put("d", 4)
	if len(evicted) != 2 || evicted[1] != "c" {
		t.Fatalf("evicted %v, want [a c]", evicted)
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
}

func TestLRUPutRefreshesExisting(t *testing.T) {
	c := newLRU[int](2, nil)
	c.Put("a", 1)
	c.Put("b", 2)
	c.Put("a", 10) // refresh, not insert
	c.Put("c", 3)  // must evict b, the oldest untouched entry
	if _, ok := c.Get("b"); ok {
		t.Fatal("b survived, want it evicted")
	}
	if v, _ := c.Get("a"); v != 10 {
		t.Fatalf("a = %d, want refreshed 10", v)
	}
}

func TestLRUZeroCapacityNeverEvicts(t *testing.T) {
	c := newLRU[int](0, func(string, int) { t.Fatal("unexpected eviction") })
	for i := 0; i < 100; i++ {
		c.Put(string(rune('a'+i%26))+string(rune('0'+i/26)), i)
	}
	if c.Len() != 100 {
		t.Fatalf("Len = %d, want 100", c.Len())
	}
}

func TestModelCacheRoundTrip(t *testing.T) {
	// Store-less cache: pure LRU semantics (store behavior is covered in
	// store_test.go).
	mc := newModelCache(4, 2, nil, nil)
	if got := mc.Get("p1"); got != nil {
		t.Fatalf("Get on empty cache = %v, want nil", got)
	}
	X := [][]float64{{0, 0}, {1, 1}, {0, 0.1}, {1, 0.9}}
	y := []bool{false, true, false, true}
	pf, err := forest.Train(X, y, forest.Config{NumTrees: 3, MinLeaf: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	f := pf.Flatten()
	if v := mc.Publish("p1", f); v != 1 {
		t.Fatalf("first publish version = %d, want 1", v)
	}
	if v := mc.Publish("p1", f); v != 2 { // refresh must not double-count
		t.Fatalf("second publish version = %d, want 2", v)
	}
	if mc.Len() != 1 {
		t.Fatalf("Len = %d, want 1", mc.Len())
	}
	if mc.Get("p1") != f {
		t.Fatal("cached model lost")
	}
	if _, v := mc.GetVersioned("p1"); v != 2 {
		t.Fatalf("cached version = %d, want 2", v)
	}
	if v := mc.Publish("p2", nil); v != 0 { // nil models are ignored
		t.Fatalf("nil publish version = %d, want 0", v)
	}
	if mc.Len() != 1 {
		t.Fatalf("Len after nil publish = %d, want 1", mc.Len())
	}
	// Install only accepts strictly newer versions.
	if mc.Install("p1", f, 2) {
		t.Fatal("Install accepted a stale (equal) version")
	}
	if !mc.Install("p1", f, 7) {
		t.Fatal("Install refused a newer version")
	}
	if v := mc.Publish("p1", f); v != 8 {
		t.Fatalf("publish after install version = %d, want 8", v)
	}
}

package runsvc

import (
	"fmt"
	"testing"
)

// TestMemoBounds pins the memo's byte accounting and eviction order: the
// bytes in use never exceed the cap, the least recently used entry goes
// first, an entry larger than the cap is not kept, and re-putting a key
// replaces its bytes instead of adding to them.
func TestMemoBounds(t *testing.T) {
	m := newMemo[string, int](100)
	check := func(want int) {
		t.Helper()
		if m.used > m.max {
			t.Fatalf("memo holds %d bytes, over its cap of %d", m.used, m.max)
		}
		if m.used != want || len(m.index) != m.order.Len() {
			t.Fatalf("memo holds %d bytes in %d keys and %d entries, want %d bytes", m.used, len(m.index), m.order.Len(), want)
		}
	}
	has := func(key string) bool {
		_, ok := m.index[key]
		return ok
	}

	for i := range 4 {
		m.put(fmt.Sprint(i), i, 25)
	}
	check(100)
	// Touch 0, so 1 is now the least recently used.
	if v, ok := m.get("0"); !ok || v != 0 {
		t.Fatalf("get(0) = %d, %v", v, ok)
	}
	m.put("4", 4, 30)
	check(25 + 25 + 30)
	if has("1") || has("2") || !has("0") || !has("3") || !has("4") {
		t.Fatalf("eviction did not take the least recently used entries first: %v", m.index)
	}

	// Re-putting a key replaces its bytes.
	m.put("4", 40, 30)
	m.put("4", 41, 10)
	check(25 + 25 + 10)
	if v, _ := m.get("4"); v != 41 {
		t.Errorf("re-put kept the old value %d", v)
	}

	// An entry larger than the cap is not kept, and replaces nothing else.
	m.put("huge", -1, 101)
	check(60)
	if has("huge") {
		t.Error("memo kept an entry larger than its cap")
	}
	m.put("0", -1, 101)
	check(35)
	if has("0") {
		t.Error("an oversized re-put left the old entry behind")
	}

	// A churn of mixed sizes over a few keys keeps the account exact.
	for i := range 200 {
		m.put(fmt.Sprint(i%13), i, (i*37)%60+1)
		sum := 0
		for el := m.order.Front(); el != nil; el = el.Next() {
			sum += el.Value.(*memoEntry[string, int]).size
		}
		check(sum)
	}

	// A nil memo always misses and never panics.
	var none *memo[string, int]
	none.put("x", 1, 1)
	if _, ok := none.get("x"); ok {
		t.Error("nil memo claimed a hit")
	}

	// A service bounds its memos by the constant caps, and keeps no result
	// memo without a cache.
	cached, err := New(Options{CacheDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer cached.Close()
	bare, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer bare.Close()
	if cached.plans.max != planMemoBytes || bare.plans.max != planMemoBytes || cached.results.max != resultMemoBytes {
		t.Errorf("memo caps %d, %d and %d, want %d, %d and %d",
			cached.plans.max, bare.plans.max, cached.results.max, planMemoBytes, planMemoBytes, resultMemoBytes)
	}
	if bare.results != nil {
		t.Error("a service with no cache keeps a result memo")
	}
}

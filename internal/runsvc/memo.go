package runsvc

import (
	"container/list"
	"sync"

	"repro/internal/experiments"
)

// memo is a byte-bounded least-recently-used map, the service's in-memory
// tier. Each entry carries a size fixed at insert; an insert evicts from the
// least recently used end until the entry fits, and an entry larger than the
// whole cap is not kept. A nil *memo is a valid always-miss memo, so callers
// never branch on whether memoizing is on.
type memo[K comparable, V any] struct {
	mu    sync.Mutex
	max   int
	used  int
	order *list.List // of *memoEntry[K, V], most recently used at the front
	index map[K]*list.Element
}

type memoEntry[K comparable, V any] struct {
	key  K
	val  V
	size int
}

func newMemo[K comparable, V any](maxBytes int) *memo[K, V] {
	return &memo[K, V]{max: maxBytes, order: list.New(), index: map[K]*list.Element{}}
}

// get returns the value under key and marks it most recently used.
func (m *memo[K, V]) get(key K) (V, bool) {
	var zero V
	if m == nil {
		return zero, false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	el, ok := m.index[key]
	if !ok {
		return zero, false
	}
	m.order.MoveToFront(el)
	return el.Value.(*memoEntry[K, V]).val, true
}

// put stores val under key at the given size, replacing any earlier entry
// under key, and evicts least recently used entries until the bytes in use
// are within the cap.
func (m *memo[K, V]) put(key K, val V, size int) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if el, ok := m.index[key]; ok {
		m.remove(el)
	}
	if size > m.max {
		return
	}
	for m.used+size > m.max {
		m.remove(m.order.Back())
	}
	m.index[key] = m.order.PushFront(&memoEntry[K, V]{key: key, val: val, size: size})
	m.used += size
}

func (m *memo[K, V]) remove(el *list.Element) {
	e := m.order.Remove(el).(*memoEntry[K, V])
	delete(m.index, e.key)
	m.used -= e.size
}

// planKey addresses one experiment's row of a task plan. Seed and workers
// are absent: neither changes how many tasks an experiment declares.
type planKey struct {
	id     string
	quick  bool
	trials int
}

func planKeyOf(cfg experiments.Config, id string) planKey {
	return planKey{id: id, quick: cfg.Quick, trials: cfg.EffectiveTrials()}
}

// Memo caps. There is one daemon and one value for each, so they are
// constants, not options.
const (
	// planMemoBytes caps the plan rows. A row costs its ID plus
	// planRowOverhead, so one configuration of the whole registry is about
	// 3 KB and the cap keeps some 80 configurations; a client sweeping trial
	// counts or scenario specs evicts its own cold rows instead of growing
	// the daemon.
	planMemoBytes = 256 << 10
	// planRowOverhead estimates a row's map slot, list element and entry
	// headers.
	planRowOverhead = 128
	// resultMemoBytes caps the merged results, by resultBytes' estimate. The
	// whole quick registry estimates at 14 KB, so the cap keeps some 300
	// such configurations warm while bounding a daemon whose clients sweep
	// seeds.
	resultMemoBytes = 4 << 20
)

// resultBytes is a result's deterministic size estimate, taken once at
// insert: twice its table's CSV (the rendered cells plus their slice and
// string headers), its notes, and 16 bytes per series point.
func resultBytes(res *experiments.Result) int {
	n := 2 * len(res.Table.CSV())
	for _, note := range res.Notes {
		n += len(note)
	}
	for _, s := range res.Series {
		n += 16 * len(s.X)
	}
	return n
}

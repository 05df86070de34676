package queue

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestRBTreeEmpty(t *testing.T) {
	var tr RBTree
	if tr.Len() != 0 || tr.Min() != nil || tr.Max() != nil {
		t.Fatal("zero tree not empty")
	}
	tr.CheckInvariants()
}

// insert links a fresh node holding value under key {w, id}.
func insert(tr *RBTree, w int64, id uint64, value any) *Node {
	n := &Node{Value: value}
	tr.Insert(n, Key{Weight: w, ID: id})
	return n
}

func TestRBTreeInsertMinMax(t *testing.T) {
	var tr RBTree
	keys := []int64{50, 20, 80, 10, 30, 70, 90}
	for i, w := range keys {
		insert(&tr, w, uint64(i), w)
		tr.CheckInvariants()
	}
	if tr.Len() != len(keys) {
		t.Fatalf("Len = %d, want %d", tr.Len(), len(keys))
	}
	if tr.Min().Key.Weight != 10 {
		t.Errorf("Min = %d, want 10", tr.Min().Key.Weight)
	}
	if tr.Max().Key.Weight != 90 {
		t.Errorf("Max = %d, want 90", tr.Max().Key.Weight)
	}
}

func TestRBTreeDuplicatePanics(t *testing.T) {
	var tr RBTree
	insert(&tr, 1, 1, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate insert did not panic")
		}
	}()
	insert(&tr, 1, 1, nil)
}

func TestRBTreeLinkedNodeInsertPanics(t *testing.T) {
	var tr, other RBTree
	n := insert(&tr, 1, 1, nil)
	for _, into := range []*RBTree{&tr, &other} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("Insert of a linked node did not panic")
				}
			}()
			into.Insert(n, Key{Weight: 2, ID: 2})
		}()
	}
	tr.CheckInvariants()
	other.CheckInvariants()
}

func TestRBTreeUnlinkedNodeDeletePanics(t *testing.T) {
	var tr RBTree
	n := insert(&tr, 1, 1, nil)
	tr.Delete(n)
	if n.Linked() {
		t.Fatal("node still linked after Delete")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Delete of an unlinked node did not panic")
		}
	}()
	tr.Delete(n)
}

func TestRBTreeTiebreakByID(t *testing.T) {
	var tr RBTree
	insert(&tr, 5, 2, "b")
	insert(&tr, 5, 1, "a")
	insert(&tr, 5, 3, "c")
	var got []string
	tr.InOrder(func(n *Node) bool {
		got = append(got, n.Value.(string))
		return true
	})
	if len(got) != 3 || got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Fatalf("InOrder = %v, want [a b c]", got)
	}
}

func TestRBTreeDeleteAllPermutations(t *testing.T) {
	// Exhaustively delete in several orders to hit fixup branches.
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		var tr RBTree
		const n = 40
		nodes := make([]*Node, 0, n)
		for i := 0; i < n; i++ {
			nodes = append(nodes, insert(&tr, int64(rng.Intn(15)), uint64(i), i))
		}
		rng.Shuffle(len(nodes), func(i, j int) { nodes[i], nodes[j] = nodes[j], nodes[i] })
		for i, nd := range nodes {
			tr.Delete(nd)
			tr.CheckInvariants()
			if tr.Len() != n-i-1 {
				t.Fatalf("Len = %d after %d deletes", tr.Len(), i+1)
			}
		}
		if tr.Min() != nil {
			t.Fatal("tree not empty after deleting all")
		}
	}
}

func TestRBTreeInOrderEarlyStop(t *testing.T) {
	var tr RBTree
	for i := 0; i < 10; i++ {
		insert(&tr, int64(i), uint64(i), i)
	}
	count := 0
	tr.InOrder(func(*Node) bool {
		count++
		return count < 3
	})
	if count != 3 {
		t.Fatalf("early stop visited %d, want 3", count)
	}
}

// Property: for any sequence of inserts and deletes, in-order traversal
// equals the sorted reference and invariants hold.
func TestRBTreeMatchesSortedReferenceProperty(t *testing.T) {
	type op struct {
		Weight int8
		Delete bool
	}
	f := func(ops []op) bool {
		var tr RBTree
		live := map[uint64]*Node{}
		ref := map[uint64]int64{}
		var nextID uint64
		liveIDs := []uint64{}
		for _, o := range ops {
			if o.Delete && len(liveIDs) > 0 {
				// Delete the oldest live node (deterministic choice).
				id := liveIDs[0]
				liveIDs = liveIDs[1:]
				tr.Delete(live[id])
				delete(live, id)
				delete(ref, id)
			} else {
				id := nextID
				nextID++
				nd := insert(&tr, int64(o.Weight), id, id)
				live[id] = nd
				ref[id] = int64(o.Weight)
				liveIDs = append(liveIDs, id)
			}
			tr.CheckInvariants()
		}
		if tr.Len() != len(ref) {
			return false
		}
		// Build the expected sorted key list.
		want := make([]Key, 0, len(ref))
		for id, w := range ref {
			want = append(want, Key{Weight: w, ID: id})
		}
		sort.Slice(want, func(i, j int) bool { return want[i].Less(want[j]) })
		got := make([]Key, 0, tr.Len())
		tr.InOrder(func(n *Node) bool {
			got = append(got, n.Key)
			return true
		})
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 250}); err != nil {
		t.Fatal(err)
	}
}

// Property: re-linking the same fixed set of nodes through random
// insert/delete cycles, with fresh keys on every insert, keeps Min, Max
// and InOrder equal to a sorted-slice oracle. This is the CFS usage
// pattern: one node per task, requeued many times.
func TestRBTreeReusedNodesMatchSortedOracleProperty(t *testing.T) {
	type op struct {
		Slot   uint8
		Weight int8
	}
	const slots = 16
	f := func(ops []op) bool {
		var tr RBTree
		var nodes [slots]Node
		var oracle []Key // sorted keys of the linked nodes
		for step, o := range ops {
			n := &nodes[int(o.Slot)%slots]
			if n.Linked() {
				i := sort.Search(len(oracle), func(i int) bool { return !oracle[i].Less(n.Key) })
				oracle = append(oracle[:i], oracle[i+1:]...)
				tr.Delete(n)
			} else {
				// A fresh ID per insert keeps keys unique while the
				// weight repeats freely.
				k := Key{Weight: int64(o.Weight), ID: uint64(step)}
				i := sort.Search(len(oracle), func(i int) bool { return k.Less(oracle[i]) })
				oracle = append(oracle, Key{})
				copy(oracle[i+1:], oracle[i:])
				oracle[i] = k
				tr.Insert(n, k)
			}
			tr.CheckInvariants()
			if tr.Len() != len(oracle) {
				return false
			}
			if len(oracle) == 0 {
				if tr.Min() != nil || tr.Max() != nil {
					return false
				}
				continue
			}
			if tr.Min().Key != oracle[0] || tr.Max().Key != oracle[len(oracle)-1] {
				return false
			}
			i := 0
			ok := true
			tr.InOrder(func(n *Node) bool {
				ok = i < len(oracle) && n.Key == oracle[i]
				i++
				return ok
			})
			if !ok || i != len(oracle) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestRBTreeReusedNodeAllocFree(t *testing.T) {
	var tr RBTree
	nodes := make([]Node, 64)
	for i := range nodes {
		tr.Insert(&nodes[i], Key{Weight: int64(i), ID: uint64(i)})
	}
	n := &nodes[17]
	w := int64(0)
	allocs := testing.AllocsPerRun(1000, func() {
		tr.Delete(n)
		w++
		tr.Insert(n, Key{Weight: w, ID: 17})
		tr.InOrder(func(*Node) bool { return true })
	})
	if allocs != 0 {
		t.Fatalf("Delete+Insert of a reused node: %v allocs/op, want 0", allocs)
	}
	tr.CheckInvariants()
}

func BenchmarkRBTreeInsertDelete(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var tr RBTree
	nodes := make([]Node, 1024)
	for i := range nodes {
		tr.Insert(&nodes[i], Key{Weight: rng.Int63(), ID: uint64(i)})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := &nodes[i%len(nodes)]
		tr.Delete(n)
		tr.Insert(n, Key{Weight: rng.Int63(), ID: uint64(1024 + i)})
	}
}

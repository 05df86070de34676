package queue

// Key orders red-black tree nodes by a primary weight (for CFS this is the
// task's virtual runtime in nanoseconds) with a unique ID tiebreak, exactly
// like the kernel's (vruntime, pid)-style ordering: equal vruntimes must
// not collide, and iteration must be deterministic.
type Key struct {
	Weight int64
	ID     uint64
}

// Less reports whether k orders strictly before other.
func (k Key) Less(other Key) bool {
	if k.Weight != other.Weight {
		return k.Weight < other.Weight
	}
	return k.ID < other.ID
}

type color bool

const (
	red   color = false
	black color = true
)

// Node is an intrusive red-black tree node: the caller owns it, usually
// embedded in its per-item bookkeeping, and links it into a tree with
// Insert and out again with Delete. A node is reused across any number of
// Insert/Delete cycles, so a queue whose items come and go allocates
// nothing per requeue (Linux's sched_entity.run_node).
type Node struct {
	Key   Key
	Value any

	parent, left, right *Node
	color               color
	linked              bool
}

// Linked reports whether the node is currently in a tree.
func (n *Node) Linked() bool { return n.linked }

// RBTree is a classic red-black tree of caller-owned Nodes keyed by Key,
// with the leftmost node cached (Linux's rb_root_cached).
// The zero value is an empty tree ready to use.
//
// It backs the per-core CFS runqueues: Min() is the leftmost node (next
// task to run) in O(1), Insert places a woken/preempted task by vruntime,
// and Delete removes a task picked to run or migrated away.
type RBTree struct {
	root     *Node
	leftmost *Node
	n        int
}

// Len returns the number of nodes.
func (t *RBTree) Len() int { return t.n }

// Min returns the leftmost (smallest-key) node, or nil when empty.
func (t *RBTree) Min() *Node { return t.leftmost }

// Max returns the rightmost (largest-key) node, or nil when empty.
func (t *RBTree) Max() *Node {
	if t.root == nil {
		return nil
	}
	n := t.root
	for n.right != nil {
		n = n.right
	}
	return n
}

// Insert links node into the tree under key. The node must not be linked
// (into this or any other tree), and keys must be unique (IDs are unique
// by construction); Insert panics on either, because a silent duplicate
// or a doubly linked node would corrupt scheduling order.
func (t *RBTree) Insert(node *Node, key Key) {
	if node.linked {
		panic("queue: Insert of a node that is still linked")
	}
	var parent *Node
	cur := t.root
	leftmost := true
	for cur != nil {
		parent = cur
		switch {
		case key.Less(cur.Key):
			cur = cur.left
		case cur.Key.Less(key):
			cur = cur.right
			leftmost = false
		default:
			panic("queue: duplicate key inserted into RBTree")
		}
	}
	// An unlinked node's child links are already nil (zero value, or
	// cleared by Delete).
	node.Key, node.parent, node.color, node.linked = key, parent, red, true
	switch {
	case parent == nil:
		t.root = node
	case key.Less(parent.Key):
		parent.left = node
	default:
		parent.right = node
	}
	if leftmost {
		t.leftmost = node
	}
	t.n++
	t.insertFixup(node)
}

// Delete unlinks node from the tree. The node must currently be linked
// into this tree; Delete panics on an unlinked node.
func (t *RBTree) Delete(node *Node) {
	if !node.linked {
		panic("queue: Delete of an unlinked node")
	}
	if node == t.leftmost {
		t.leftmost = next(node)
	}
	t.n--
	var fixAt *Node
	var fixParent *Node
	removed := node
	removedColor := removed.color

	switch {
	case node.left == nil:
		fixAt = node.right
		fixParent = node.parent
		t.transplant(node, node.right)
	case node.right == nil:
		fixAt = node.left
		fixParent = node.parent
		t.transplant(node, node.left)
	default:
		// Successor: leftmost of right subtree.
		succ := node.right
		for succ.left != nil {
			succ = succ.left
		}
		removedColor = succ.color
		fixAt = succ.right
		if succ.parent == node {
			fixParent = succ
		} else {
			fixParent = succ.parent
			t.transplant(succ, succ.right)
			succ.right = node.right
			succ.right.parent = succ
		}
		t.transplant(node, succ)
		succ.left = node.left
		succ.left.parent = succ
		succ.color = node.color
	}
	if removedColor == black {
		t.deleteFixup(fixAt, fixParent)
	}
	node.parent, node.left, node.right = nil, nil, nil
	node.linked = false
}

// InOrder calls fn for each node in ascending key order; returning false
// stops the walk. fn must not modify the tree. The walk follows parent
// links, so it allocates nothing.
func (t *RBTree) InOrder(fn func(*Node) bool) {
	for n := t.leftmost; n != nil; n = next(n) {
		if !fn(n) {
			return
		}
	}
}

// next returns n's in-order successor, nil when n is the rightmost node.
func next(n *Node) *Node {
	if n.right != nil {
		n = n.right
		for n.left != nil {
			n = n.left
		}
		return n
	}
	p := n.parent
	for p != nil && n == p.right {
		n, p = p, p.parent
	}
	return p
}

func (t *RBTree) transplant(u, v *Node) {
	switch {
	case u.parent == nil:
		t.root = v
	case u == u.parent.left:
		u.parent.left = v
	default:
		u.parent.right = v
	}
	if v != nil {
		v.parent = u.parent
	}
}

func (t *RBTree) rotateLeft(x *Node) {
	y := x.right
	x.right = y.left
	if y.left != nil {
		y.left.parent = x
	}
	y.parent = x.parent
	switch {
	case x.parent == nil:
		t.root = y
	case x == x.parent.left:
		x.parent.left = y
	default:
		x.parent.right = y
	}
	y.left = x
	x.parent = y
}

func (t *RBTree) rotateRight(x *Node) {
	y := x.left
	x.left = y.right
	if y.right != nil {
		y.right.parent = x
	}
	y.parent = x.parent
	switch {
	case x.parent == nil:
		t.root = y
	case x == x.parent.right:
		x.parent.right = y
	default:
		x.parent.left = y
	}
	y.right = x
	x.parent = y
}

func (t *RBTree) insertFixup(z *Node) {
	for z.parent != nil && z.parent.color == red {
		gp := z.parent.parent
		if z.parent == gp.left {
			uncle := gp.right
			if uncle != nil && uncle.color == red {
				z.parent.color = black
				uncle.color = black
				gp.color = red
				z = gp
				continue
			}
			if z == z.parent.right {
				z = z.parent
				t.rotateLeft(z)
			}
			z.parent.color = black
			gp.color = red
			t.rotateRight(gp)
		} else {
			uncle := gp.left
			if uncle != nil && uncle.color == red {
				z.parent.color = black
				uncle.color = black
				gp.color = red
				z = gp
				continue
			}
			if z == z.parent.left {
				z = z.parent
				t.rotateRight(z)
			}
			z.parent.color = black
			gp.color = red
			t.rotateLeft(gp)
		}
	}
	t.root.color = black
}

func nodeColor(n *Node) color {
	if n == nil {
		return black
	}
	return n.color
}

func (t *RBTree) deleteFixup(x *Node, parent *Node) {
	for x != t.root && nodeColor(x) == black {
		if parent == nil {
			break
		}
		if x == parent.left {
			sib := parent.right
			if nodeColor(sib) == red {
				sib.color = black
				parent.color = red
				t.rotateLeft(parent)
				sib = parent.right
			}
			if sib == nil {
				x = parent
				parent = x.parent
				continue
			}
			if nodeColor(sib.left) == black && nodeColor(sib.right) == black {
				sib.color = red
				x = parent
				parent = x.parent
			} else {
				if nodeColor(sib.right) == black {
					if sib.left != nil {
						sib.left.color = black
					}
					sib.color = red
					t.rotateRight(sib)
					sib = parent.right
				}
				sib.color = parent.color
				parent.color = black
				if sib.right != nil {
					sib.right.color = black
				}
				t.rotateLeft(parent)
				x = t.root
			}
		} else {
			sib := parent.left
			if nodeColor(sib) == red {
				sib.color = black
				parent.color = red
				t.rotateRight(parent)
				sib = parent.left
			}
			if sib == nil {
				x = parent
				parent = x.parent
				continue
			}
			if nodeColor(sib.right) == black && nodeColor(sib.left) == black {
				sib.color = red
				x = parent
				parent = x.parent
			} else {
				if nodeColor(sib.left) == black {
					if sib.right != nil {
						sib.right.color = black
					}
					sib.color = red
					t.rotateLeft(sib)
					sib = parent.left
				}
				sib.color = parent.color
				parent.color = black
				if sib.left != nil {
					sib.left.color = black
				}
				t.rotateRight(parent)
				x = t.root
			}
		}
	}
	if x != nil {
		x.color = black
	}
}

// CheckInvariants validates red-black properties, parent links, the
// cached leftmost and the node count. It returns the black-height and
// panics on violation; it is O(n) and meant for tests and debugging.
func (t *RBTree) CheckInvariants() int {
	if nodeColor(t.root) != black {
		panic("rbtree: root is not black")
	}
	if t.root != nil && t.root.parent != nil {
		panic("rbtree: root has a parent")
	}
	var walkedMin *Node
	count := 0
	var check func(n *Node) int
	check = func(n *Node) int {
		if n == nil {
			return 1
		}
		count++
		if !n.linked {
			panic("rbtree: node in tree not marked linked")
		}
		if walkedMin == nil || n.Key.Less(walkedMin.Key) {
			walkedMin = n
		}
		if (n.left != nil && n.left.parent != n) || (n.right != nil && n.right.parent != n) {
			panic("rbtree: child's parent link broken")
		}
		if nodeColor(n) == red {
			if nodeColor(n.left) == red || nodeColor(n.right) == red {
				panic("rbtree: red node with red child")
			}
		}
		if n.left != nil && !n.left.Key.Less(n.Key) {
			panic("rbtree: left child not smaller")
		}
		if n.right != nil && !n.Key.Less(n.right.Key) {
			panic("rbtree: right child not larger")
		}
		lh := check(n.left)
		rh := check(n.right)
		if lh != rh {
			panic("rbtree: black-height mismatch")
		}
		if nodeColor(n) == black {
			return lh + 1
		}
		return lh
	}
	bh := check(t.root)
	if t.leftmost != walkedMin {
		panic("rbtree: cached leftmost is not the minimum")
	}
	if t.n != count {
		panic("rbtree: Len does not match the node count")
	}
	return bh
}

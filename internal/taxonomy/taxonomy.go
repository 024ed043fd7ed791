// Package taxonomy implements the immutable product taxonomy tree that the
// TF model (Kanagal et al., VLDB 2012) attaches latent offsets to. Nodes
// are dense integer ids; leaves are the purchasable items and interior
// nodes are categories. The package provides construction from parent
// arrays, a configurable random generator mirroring the Yahoo! shopping
// taxonomy shape (23 / 270 / 1500 categories over 1.5M products), path and
// sibling queries used by training, and a text serialization.
package taxonomy

import (
	"errors"
	"fmt"
)

// NoParent marks the root's parent entry.
const NoParent = -1

// Tree is an immutable rooted tree over nodes 0..NumNodes()-1. Leaves are
// items; interior nodes are categories. All accessors are safe for
// concurrent use once the tree is built.
//
// The adjacency is stored flat (CSR-style): node n's children are
// childList[childOff[n]:childOff[n+1]] in ascending node-id order, and the
// nodes at depth d are levelList[levelOff[d]:levelOff[d+1]], also
// ascending. The flat form is what the TFRECMDL v4 model file persists, so
// a memory-mapped model can wrap these arrays zero-copy (NewFromLayout)
// instead of rebuilding per-node slices at load time.
type Tree struct {
	parent    []int32
	depth     []int32
	childOff  []int32 // len NumNodes+1; exclusive prefix sum of child counts
	childList []int32 // len NumNodes-1; children grouped by parent, ascending
	levelOff  []int32 // len Depth+2; exclusive prefix sum of level sizes
	levelList []int32 // len NumNodes; nodes grouped by depth, ascending
	root      int32

	// item <-> node mapping: items are the leaves, numbered 0..NumItems()-1
	// in increasing node-id order.
	itemNode []int32 // item id -> node id
	nodeItem []int32 // node id -> item id, or -1 for interior nodes
}

// NewFromParents builds a tree from a parent array: parents[n] is the node
// id of n's parent, or NoParent for the single root. It validates that the
// structure is a connected acyclic rooted tree.
func NewFromParents(parents []int) (*Tree, error) {
	n := len(parents)
	if n == 0 {
		return nil, errors.New("taxonomy: empty parent array")
	}
	t := &Tree{
		parent: make([]int32, n),
		depth:  make([]int32, n),
		root:   -1,
	}
	counts := make([]int32, n)
	for node, p := range parents {
		if p == NoParent {
			if t.root >= 0 {
				return nil, fmt.Errorf("taxonomy: multiple roots (%d and %d)", t.root, node)
			}
			t.root = int32(node)
			t.parent[node] = NoParent
			continue
		}
		if p < 0 || p >= n {
			return nil, fmt.Errorf("taxonomy: node %d has out-of-range parent %d", node, p)
		}
		if p == node {
			return nil, fmt.Errorf("taxonomy: node %d is its own parent", node)
		}
		t.parent[node] = int32(p)
		counts[p]++
	}
	if t.root < 0 {
		return nil, errors.New("taxonomy: no root node")
	}
	// Counting sort flattens the adjacency: childOff is the exclusive
	// prefix sum of per-parent child counts, and filling slots in ascending
	// node order keeps every child list ascending.
	t.childOff = make([]int32, n+1)
	var total int32
	for node := 0; node < n; node++ {
		t.childOff[node] = total
		total += counts[node]
	}
	t.childOff[n] = total
	t.childList = make([]int32, total)
	next := make([]int32, n)
	copy(next, t.childOff[:n])
	for node, p := range parents {
		if p == NoParent {
			continue
		}
		t.childList[next[p]] = int32(node)
		next[p]++
	}
	// BFS from the root assigns depths and detects disconnected nodes
	// (which, given n-1 edges, also rules out cycles).
	visited := make([]bool, n)
	queue := []int32{t.root}
	visited[t.root] = true
	t.depth[t.root] = 0
	maxDepth := int32(0)
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, c := range t.Children(int(cur)) {
			if visited[c] {
				return nil, fmt.Errorf("taxonomy: node %d reached twice (cycle)", c)
			}
			visited[c] = true
			t.depth[c] = t.depth[cur] + 1
			if t.depth[c] > maxDepth {
				maxDepth = t.depth[c]
			}
			queue = append(queue, c)
		}
	}
	for node, v := range visited {
		if !v {
			return nil, fmt.Errorf("taxonomy: node %d unreachable from root", node)
		}
	}
	// Same counting sort for the levels: nodes grouped by depth, ascending
	// within each level.
	t.levelOff = make([]int32, maxDepth+2)
	for node := 0; node < n; node++ {
		t.levelOff[t.depth[node]+1]++
	}
	for d := int32(0); d <= maxDepth; d++ {
		t.levelOff[d+1] += t.levelOff[d]
	}
	t.levelList = make([]int32, n)
	nextL := make([]int32, maxDepth+1)
	copy(nextL, t.levelOff[:maxDepth+1])
	for node := 0; node < n; node++ {
		d := t.depth[node]
		t.levelList[nextL[d]] = int32(node)
		nextL[d]++
	}
	// Items are the leaves, in increasing node-id order.
	t.nodeItem = make([]int32, n)
	for node := 0; node < n; node++ {
		if t.IsLeaf(node) {
			t.nodeItem[node] = int32(len(t.itemNode))
			t.itemNode = append(t.itemNode, int32(node))
		} else {
			t.nodeItem[node] = -1
		}
	}
	if len(t.itemNode) == 0 {
		return nil, errors.New("taxonomy: tree has no leaves")
	}
	return t, nil
}

// NewFromLayout constructs a tree directly from the flat arrays a TFRECMDL
// v4 file persists, without copying: the tree's accessors serve slices of
// the caller's (possibly memory-mapped) arrays, which must stay immutable
// and alive for the tree's lifetime. Every structural invariant
// NewFromParents establishes is re-verified here with O(n) integer passes
// — a corrupt or hostile file yields an error, never a tree that panics
// later — but no per-node allocation happens, which is what makes mmap
// loading O(1) in the catalog size for heap work.
func NewFromLayout(parent, depth, childOff, childList, levelOff, levelList, itemNode, nodeItem []int32, root int32) (*Tree, error) {
	n := len(parent)
	if n == 0 {
		return nil, errors.New("taxonomy: layout: empty parent array")
	}
	if len(depth) != n || len(nodeItem) != n || len(levelList) != n {
		return nil, fmt.Errorf("taxonomy: layout: array lengths %d/%d/%d do not match %d nodes", len(depth), len(nodeItem), len(levelList), n)
	}
	if len(childOff) != n+1 {
		return nil, fmt.Errorf("taxonomy: layout: childOff length %d, want %d", len(childOff), n+1)
	}
	if len(childList) != n-1 {
		return nil, fmt.Errorf("taxonomy: layout: childList length %d, want %d", len(childList), n-1)
	}
	if len(levelOff) < 2 || len(levelOff) > n+1 {
		return nil, fmt.Errorf("taxonomy: layout: levelOff length %d out of range", len(levelOff))
	}
	if root < 0 || int(root) >= n {
		return nil, fmt.Errorf("taxonomy: layout: root %d out of range", root)
	}
	if parent[root] != NoParent || depth[root] != 0 {
		return nil, fmt.Errorf("taxonomy: layout: root %d has parent %d depth %d", root, parent[root], depth[root])
	}
	maxDepth := int32(len(levelOff)) - 2

	// Parent function and depth recurrence. depth[c] == depth[parent(c)]+1
	// with a single NoParent entry at depth 0 proves the parent graph is a
	// connected acyclic tree: following parents strictly decreases depth,
	// and only the root sits at depth 0.
	counts := make([]int32, n)
	for node := 0; node < n; node++ {
		p := parent[node]
		if int32(node) == root {
			continue
		}
		if p == NoParent {
			return nil, fmt.Errorf("taxonomy: layout: multiple roots (%d and %d)", root, node)
		}
		if p < 0 || int(p) >= n {
			return nil, fmt.Errorf("taxonomy: layout: node %d has out-of-range parent %d", node, p)
		}
		if int(p) == node {
			return nil, fmt.Errorf("taxonomy: layout: node %d is its own parent", node)
		}
		if depth[node] < 1 || depth[node] > maxDepth {
			return nil, fmt.Errorf("taxonomy: layout: node %d depth %d out of range [1,%d]", node, depth[node], maxDepth)
		}
		if depth[node] != depth[p]+1 {
			return nil, fmt.Errorf("taxonomy: layout: node %d depth %d != parent %d depth %d + 1", node, depth[node], p, depth[p])
		}
		counts[p]++
	}

	// Child adjacency: offsets must be the exact prefix sums of the parent
	// counts, and each child span must list that parent's children in
	// strictly ascending order (count + membership + ascending ⇒ the span
	// is exactly the child set).
	if childOff[0] != 0 || childOff[n] != int32(n-1) {
		return nil, fmt.Errorf("taxonomy: layout: childOff spans [%d,%d], want [0,%d]", childOff[0], childOff[n], n-1)
	}
	for node := 0; node < n; node++ {
		lo, hi := childOff[node], childOff[node+1]
		if lo > hi || hi > int32(n-1) {
			return nil, fmt.Errorf("taxonomy: layout: childOff not monotone at node %d (%d > %d)", node, lo, hi)
		}
		if hi-lo != counts[node] {
			return nil, fmt.Errorf("taxonomy: layout: node %d lists %d children, parent array says %d", node, hi-lo, counts[node])
		}
		prev := int32(-1)
		for i := lo; i < hi; i++ {
			c := childList[i]
			if c < 0 || int(c) >= n {
				return nil, fmt.Errorf("taxonomy: layout: child %d of node %d out of range", c, node)
			}
			if parent[c] != int32(node) {
				return nil, fmt.Errorf("taxonomy: layout: node %d listed as child of %d but has parent %d", c, node, parent[c])
			}
			if c <= prev {
				return nil, fmt.Errorf("taxonomy: layout: children of node %d not ascending", node)
			}
			prev = c
		}
	}

	// Level partition: offsets are the exact prefix sums of per-depth
	// counts, each level lists its nodes ascending, and level 0 is the root
	// alone.
	levelCounts := make([]int32, maxDepth+1)
	for node := 0; node < n; node++ {
		levelCounts[depth[node]]++
	}
	if levelOff[0] != 0 || levelOff[maxDepth+1] != int32(n) {
		return nil, fmt.Errorf("taxonomy: layout: levelOff spans [%d,%d], want [0,%d]", levelOff[0], levelOff[maxDepth+1], n)
	}
	for d := int32(0); d <= maxDepth; d++ {
		lo, hi := levelOff[d], levelOff[d+1]
		if lo > hi || hi > int32(n) {
			return nil, fmt.Errorf("taxonomy: layout: levelOff not monotone at depth %d", d)
		}
		if hi-lo != levelCounts[d] {
			return nil, fmt.Errorf("taxonomy: layout: level %d lists %d nodes, depth array says %d", d, hi-lo, levelCounts[d])
		}
		if hi == lo {
			return nil, fmt.Errorf("taxonomy: layout: empty level %d", d)
		}
		prev := int32(-1)
		for i := lo; i < hi; i++ {
			c := levelList[i]
			if c < 0 || int(c) >= n {
				return nil, fmt.Errorf("taxonomy: layout: level %d entry %d out of range", d, c)
			}
			if depth[c] != d {
				return nil, fmt.Errorf("taxonomy: layout: node %d at depth %d listed in level %d", c, depth[c], d)
			}
			if c <= prev {
				return nil, fmt.Errorf("taxonomy: layout: level %d not ascending", d)
			}
			prev = c
		}
	}
	if levelOff[1] != 1 || levelList[0] != root {
		return nil, fmt.Errorf("taxonomy: layout: level 0 is not exactly the root")
	}

	// Item numbering: leaves get consecutive item ids in ascending node
	// order; interior nodes map to -1.
	nextItem := int32(0)
	for node := 0; node < n; node++ {
		if childOff[node] == childOff[node+1] {
			if nodeItem[node] != nextItem {
				return nil, fmt.Errorf("taxonomy: layout: leaf %d has item id %d, want %d", node, nodeItem[node], nextItem)
			}
			if int(nextItem) >= len(itemNode) || itemNode[nextItem] != int32(node) {
				return nil, fmt.Errorf("taxonomy: layout: item %d does not map back to leaf %d", nextItem, node)
			}
			nextItem++
		} else if nodeItem[node] != -1 {
			return nil, fmt.Errorf("taxonomy: layout: interior node %d has item id %d", node, nodeItem[node])
		}
	}
	if int(nextItem) != len(itemNode) {
		return nil, fmt.Errorf("taxonomy: layout: itemNode length %d, want %d leaves", len(itemNode), nextItem)
	}
	if nextItem == 0 {
		return nil, errors.New("taxonomy: layout: tree has no leaves")
	}

	return &Tree{
		parent:    parent,
		depth:     depth,
		childOff:  childOff,
		childList: childList,
		levelOff:  levelOff,
		levelList: levelList,
		root:      root,
		itemNode:  itemNode,
		nodeItem:  nodeItem,
	}, nil
}

// Layout returns the flat arrays backing the tree, in NewFromLayout's
// parameter order. The slices are the tree's own storage and must not be
// modified; model serialization writes them verbatim.
func (t *Tree) Layout() (parent, depth, childOff, childList, levelOff, levelList, itemNode, nodeItem []int32, root int32) {
	return t.parent, t.depth, t.childOff, t.childList, t.levelOff, t.levelList, t.itemNode, t.nodeItem, t.root
}

// NumNodes returns the total node count (categories + items + root).
func (t *Tree) NumNodes() int { return len(t.parent) }

// NumItems returns the number of leaf items.
func (t *Tree) NumItems() int { return len(t.itemNode) }

// Root returns the root node id.
func (t *Tree) Root() int { return int(t.root) }

// Depth returns the maximum node depth (the root has depth 0).
func (t *Tree) Depth() int { return len(t.levelOff) - 2 }

// Parent returns node's parent id, or NoParent for the root.
func (t *Tree) Parent(node int) int { return int(t.parent[node]) }

// Children returns node's children. The returned slice must not be
// modified.
func (t *Tree) Children(node int) []int32 {
	lo, hi := t.childOff[node], t.childOff[node+1]
	return t.childList[lo:hi:hi]
}

// IsLeaf reports whether node is a leaf (an item).
func (t *Tree) IsLeaf(node int) bool { return t.childOff[node] == t.childOff[node+1] }

// DepthOf returns the depth of node (root = 0).
func (t *Tree) DepthOf(node int) int { return int(t.depth[node]) }

// Level returns all nodes at depth d. The returned slice must not be
// modified.
func (t *Tree) Level(d int) []int32 {
	lo, hi := t.levelOff[d], t.levelOff[d+1]
	return t.levelList[lo:hi:hi]
}

// ItemNode maps an item id to its leaf node id.
func (t *Tree) ItemNode(item int) int { return int(t.itemNode[item]) }

// NodeItem maps a leaf node id to its item id, or -1 for interior nodes.
func (t *Tree) NodeItem(node int) int { return int(t.nodeItem[node]) }

// PathToRoot appends the path p0(node)=node, p1=parent(node), ..., root to
// buf and returns it. Passing a reused buf avoids allocation in the SGD
// inner loop.
func (t *Tree) PathToRoot(node int, buf []int32) []int32 {
	cur := int32(node)
	for {
		buf = append(buf, cur)
		if cur == t.root {
			return buf
		}
		cur = t.parent[cur]
	}
}

// Ancestor returns the m-th node on the path from node to the root:
// Ancestor(node, 0) == node, Ancestor(node, 1) == Parent(node), etc.
// It returns the root if m exceeds the path length.
func (t *Tree) Ancestor(node, m int) int {
	cur := int32(node)
	for i := 0; i < m && cur != t.root; i++ {
		cur = t.parent[cur]
	}
	return int(cur)
}

// AncestorAtDepth returns node's ancestor at depth d, or the node itself
// if d >= DepthOf(node).
func (t *Tree) AncestorAtDepth(node, d int) int {
	cur := int32(node)
	for int(t.depth[cur]) > d {
		cur = t.parent[cur]
	}
	return int(cur)
}

// NumSiblings returns the number of siblings of node (children of its
// parent excluding node itself). The root has none.
func (t *Tree) NumSiblings(node int) int {
	if int32(node) == t.root {
		return 0
	}
	p := t.parent[node]
	return int(t.childOff[p+1]-t.childOff[p]) - 1
}

// IsUniformDepth reports whether every leaf sits at the maximum depth; the
// TF model's additive composition (Eq. 1) assumes this, and the built-in
// generator guarantees it.
func (t *Tree) IsUniformDepth() bool {
	d := int32(t.Depth())
	for _, leaf := range t.itemNode {
		if t.depth[leaf] != d {
			return false
		}
	}
	return true
}

// LevelSizes returns the node count per depth, root first. For the paper's
// taxonomy this is [1, 23, 270, ~1500, 1.5M].
func (t *Tree) LevelSizes() []int {
	out := make([]int, t.Depth()+1)
	for d := range out {
		out[d] = int(t.levelOff[d+1] - t.levelOff[d])
	}
	return out
}

// Validate re-checks internal invariants; it is used by tests and after
// deserialization.
func (t *Tree) Validate() error {
	rebuilt, err := NewFromParents(t.ParentArray())
	if err != nil {
		return err
	}
	if rebuilt.NumItems() != t.NumItems() || rebuilt.Depth() != t.Depth() {
		return errors.New("taxonomy: inconsistent derived state")
	}
	return nil
}

// ParentArray returns a copy of the parent array (NoParent for the root),
// the canonical serializable form of the tree.
func (t *Tree) ParentArray() []int {
	out := make([]int, len(t.parent))
	for i, p := range t.parent {
		out[i] = int(p)
	}
	return out
}

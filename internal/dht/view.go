package dht

import (
	"fmt"

	"stash/internal/geohash"
)

// View is an epoch-versioned snapshot of cluster membership: the partition
// ring plus a monotonically increasing epoch. Views are immutable; AddNode
// and RemoveNode return a fresh View at epoch+1 together with the diff of
// partition ownership moves, which is exactly the work list the membership
// controller must hand off before the new epoch may serve traffic.
//
// Consistent hashing bounds that work list: a join claims ~1/(n+1) of the
// key space from the incumbents (Ji et al.'s condition for hit rates
// surviving churn), and a leave moves only the departing node's arc.
type View struct {
	ring  *Ring
	epoch uint64
}

// Move records one partition whose owner changed between two consecutive
// views. From is the owner in the old view, To in the new. A join produces
// moves with To = the new node; a leave produces moves with From = the
// departed node.
type Move struct {
	Partition geohash.Hash
	From, To  NodeID
}

// NewView wraps a ring as epoch-1 membership (epoch 0 is reserved as "no
// view", so a zero-valued epoch field is never a valid route).
func NewView(r *Ring) *View {
	return &View{ring: r, epoch: 1}
}

// Ring returns the view's partition ring.
func (v *View) Ring() *Ring { return v.ring }

// Epoch returns the view's membership epoch.
func (v *View) Epoch() uint64 { return v.epoch }

// Contains reports whether id is a member of this view.
func (v *View) Contains(id NodeID) bool {
	for _, n := range v.ring.nodes {
		if n == id {
			return true
		}
	}
	return false
}

// AddNode returns a new view at epoch+1 whose ring includes id, plus the
// partitions that move to the joiner. Every move's To is id: adding vnodes
// can only claim hash-space arcs, never shuffle ownership between incumbents.
func (v *View) AddNode(id NodeID) (*View, []Move, error) {
	if v.Contains(id) {
		return nil, nil, fmt.Errorf("dht: node %v already in view", id)
	}
	nodes := append(v.ring.Nodes(), id)
	next, err := NewRingFromNodes(nodes, v.ring.prefixLen)
	if err != nil {
		return nil, nil, err
	}
	return v.succeed(next)
}

// RemoveNode returns a new view at epoch+1 whose ring excludes id, plus the
// partitions that leave it. Every move's From is id: removing vnodes only
// releases the departed node's arcs to their hash-space successors.
func (v *View) RemoveNode(id NodeID) (*View, []Move, error) {
	if !v.Contains(id) {
		return nil, nil, fmt.Errorf("dht: node %v not in view", id)
	}
	if v.ring.Size() == 1 {
		return nil, nil, ErrNoNodes
	}
	nodes := make([]NodeID, 0, v.ring.Size()-1)
	for _, n := range v.ring.nodes {
		if n != id {
			nodes = append(nodes, n)
		}
	}
	next, err := NewRingFromNodes(nodes, v.ring.prefixLen)
	if err != nil {
		return nil, nil, err
	}
	return v.succeed(next)
}

func (v *View) succeed(next *Ring) (*View, []Move, error) {
	return &View{ring: next, epoch: v.epoch + 1}, Diff(v.ring, next), nil
}

// Diff enumerates the partitions whose owner differs between two rings. With
// the default 2-character prefix this walks 1024 partitions — a handful of
// microseconds, paid once per membership change, never on the serve path.
func Diff(old, next *Ring) []Move {
	var moves []Move
	for _, p := range old.Partitions() {
		from := old.ownerOfKey(p)
		to := next.ownerOfKey(p)
		if from != to {
			moves = append(moves, Move{Partition: p, From: from, To: to})
		}
	}
	return moves
}

// Package dht implements the zero-hop distributed hash table that both
// Galileo (the backing store) and STASH (the cache) use to place and locate
// spatiotemporal data (paper §IV-D, §VI-C).
//
// "Zero-hop" means every node holds the complete partition map, so locating
// the owner of any geohash costs a single local lookup — the paper's O(1)
// data-discovery claim. Placement is by geohash prefix: all data whose
// geohash shares the first PrefixLen characters lands on the same node,
// preserving spatial locality within a partition.
package dht

import (
	"errors"
	"fmt"
	"sort"
	"strconv"

	"stash/internal/geohash"
)

// DefaultPrefixLen is the partitioning prefix length used throughout the
// paper's evaluation ("partitioned uniformly over the cluster based on the
// first 2 characters of their Geohash").
const DefaultPrefixLen = 2

// ErrNoNodes reports a ring constructed without members.
var ErrNoNodes = errors.New("dht: ring has no nodes")

// NodeID identifies a cluster member.
type NodeID int

// nodeLabels caches the formatted form of the low IDs, which are the only
// ones that exist in practice (clusters are built 0..n-1 and joins extend
// from there). String() sits on the metrics/profile attribution hot path, so
// the common case must not format.
var nodeLabels = func() [1024]string {
	var a [1024]string
	for i := range a {
		a[i] = "node-" + strconv.Itoa(i)
	}
	return a
}()

func (n NodeID) String() string {
	if n >= 0 && int(n) < len(nodeLabels) {
		return nodeLabels[n]
	}
	return "node-" + strconv.Itoa(int(n))
}

// Ring is the shared partition map. It is immutable after construction, so
// every node can hold the same value and route without coordination.
type Ring struct {
	nodes     []NodeID
	prefixLen int
	// vnodes maps hash-space positions to nodes (consistent hashing with
	// virtual nodes, so partitions spread evenly even for small clusters).
	vnodeKeys   []uint64
	vnodeOwners []NodeID
}

const vnodesPerNode = 64

// NewRing builds a ring of n nodes (IDs 0..n-1) partitioning on prefixLen
// geohash characters. prefixLen <= 0 selects DefaultPrefixLen.
func NewRing(n, prefixLen int) (*Ring, error) {
	if n <= 0 {
		return nil, ErrNoNodes
	}
	nodes := make([]NodeID, n)
	for i := range nodes {
		nodes[i] = NodeID(i)
	}
	return NewRingFromNodes(nodes, prefixLen)
}

// NewRingFromNodes builds a ring over an arbitrary (non-empty, duplicate-free)
// node set. Membership changes produce node sets that are neither contiguous
// nor zero-based — a join appends a fresh ID, a leave punches a hole — so the
// elastic layer constructs its rings through this entry point. The vnode
// placement of a given NodeID depends only on that ID, never on the rest of
// the set, which is what bounds key movement under churn to the departing or
// arriving node's arc.
func NewRingFromNodes(nodes []NodeID, prefixLen int) (*Ring, error) {
	if len(nodes) == 0 {
		return nil, ErrNoNodes
	}
	if prefixLen <= 0 {
		prefixLen = DefaultPrefixLen
	}
	if prefixLen > geohash.MaxPrecision {
		return nil, fmt.Errorf("dht: prefix length %d exceeds max geohash precision", prefixLen)
	}
	r := &Ring{prefixLen: prefixLen}
	r.nodes = make([]NodeID, len(nodes))
	copy(r.nodes, nodes)
	sort.Slice(r.nodes, func(i, j int) bool { return r.nodes[i] < r.nodes[j] })
	for i := 1; i < len(r.nodes); i++ {
		if r.nodes[i] == r.nodes[i-1] {
			return nil, fmt.Errorf("dht: duplicate node id %v", r.nodes[i])
		}
	}
	type vn struct {
		key   uint64
		owner NodeID
	}
	vns := make([]vn, 0, len(r.nodes)*vnodesPerNode)
	// One reusable buffer for every vnode key: "vnode-<id>-<v>" assembled
	// with strconv.AppendInt instead of a fmt.Sprintf allocation per vnode
	// (64 per node; see BenchmarkNewRing).
	buf := make([]byte, 0, 32)
	for _, id := range r.nodes {
		buf = buf[:0]
		buf = append(buf, "vnode-"...)
		buf = strconv.AppendInt(buf, int64(id), 10)
		buf = append(buf, '-')
		prefix := len(buf)
		for v := 0; v < vnodesPerNode; v++ {
			buf = strconv.AppendInt(buf[:prefix], int64(v), 10)
			vns = append(vns, vn{key: hash64Bytes(buf), owner: id})
		}
	}
	sort.Slice(vns, func(i, j int) bool {
		if vns[i].key != vns[j].key {
			return vns[i].key < vns[j].key
		}
		return vns[i].owner < vns[j].owner
	})
	r.vnodeKeys = make([]uint64, len(vns))
	r.vnodeOwners = make([]NodeID, len(vns))
	for i, v := range vns {
		r.vnodeKeys[i] = v.key
		r.vnodeOwners[i] = v.owner
	}
	// Placement topology of the most recently built ring: membership changes
	// install a whole new ring, so last-writer-wins is the correct exposition.
	mNodes.Set(int64(len(r.nodes)))
	mPlacements.Add(int64(len(vns)))
	return r, nil
}

// Size returns the number of nodes in the ring.
func (r *Ring) Size() int { return len(r.nodes) }

// Nodes returns all node IDs in ascending order.
func (r *Ring) Nodes() []NodeID {
	out := make([]NodeID, len(r.nodes))
	copy(out, r.nodes)
	return out
}

// PrefixLen returns the geohash partitioning prefix length.
func (r *Ring) PrefixLen() int { return r.prefixLen }

// Partition returns the partition key (geohash prefix) that owns the given
// geohash. Geohashes shorter than the prefix length partition on themselves,
// so coarse cells still have a well-defined owner.
func (r *Ring) Partition(gh geohash.Hash) geohash.Hash {
	return gh.Prefix(r.prefixLen)
}

// Owner returns the node owning the given geohash. This is the zero-hop
// lookup: pure local computation, no network — which is exactly why the
// registry counts placements rather than hops (there are none to count).
func (r *Ring) Owner(gh geohash.Hash) NodeID {
	mLookupPoint.Inc()
	return r.ownerOfKey(r.Partition(gh))
}

// OwnerOfPartition returns the node owning a raw partition key.
func (r *Ring) OwnerOfPartition(part geohash.Hash) NodeID {
	mLookupPartition.Inc()
	return r.ownerOfKey(part)
}

// ownerOfKey places a partition on the ring by the hash of its text, so the
// assignment is the one the text-keyed ring made.
func (r *Ring) ownerOfKey(part geohash.Hash) NodeID {
	var buf [16]byte
	h := hash64Bytes(part.AppendText(buf[:0]))
	i := sort.Search(len(r.vnodeKeys), func(i int) bool { return r.vnodeKeys[i] >= h })
	if i == len(r.vnodeKeys) {
		i = 0
	}
	return r.vnodeOwners[i]
}

// Partitions enumerates every base partition key: all geohash prefixes of
// the ring's prefix length, in text order. For the default length 2 this is
// the paper's 32*32 = 1024 partitions.
func (r *Ring) Partitions() []geohash.Hash {
	return geohash.Hash(0).Extensions(r.prefixLen)
}

// PartitionsOf returns the partition keys assigned to one node.
func (r *Ring) PartitionsOf(id NodeID) []geohash.Hash {
	var out []geohash.Hash
	for _, p := range r.Partitions() {
		if r.ownerOfKey(p) == id {
			out = append(out, p)
		}
	}
	return out
}

// hash64Bytes hashes a key into the ring's 64-bit space: FNV-1a, inlined so a
// reusable buffer hashes without a hash.Hash allocation per key. Raw FNV-1a
// leaves very short keys (like 2-character geohash prefixes) clustered in a
// narrow band, which would collapse all partitions onto one vnode; a
// splitmix64-style finalizer disperses them across the full space.
func hash64Bytes(b []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	x := uint64(offset64)
	for _, c := range b {
		x ^= uint64(c)
		x *= prime64
	}
	return finalize64(x)
}

func finalize64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

package cluster

// Rendezvous (highest-random-weight) hashing: every node scores every
// key independently as hash(node, key) and the highest score owns the
// key. All nodes with the same membership view agree on the owner with
// no coordination, and removing a node remaps only the keys it owned —
// exactly the property the plan cache wants, since a remapped key means
// a cold cache on its new owner.

// fnv64a is FNV-1a, inlined so the hot Owner path allocates nothing.
func fnv64a(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

// splitmix64 is the SplitMix64 finalizer: a cheap, well-distributed
// bijection used both to decorrelate the rendezvous scores (raw FNV of
// similar URLs clusters) and to derive seeded gossip jitter.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// keyHash is the key's half of every rendezvous score, computed once
// per lookup rather than once per candidate node.
func keyHash(key string) uint64 {
	return splitmix64(fnv64a(key))
}

// rendezvousScore scores one (node, key) pair from the key's keyHash.
// The node URL is hashed first and the key folded in before finalizing,
// so a node's scores across keys are independent draws.
func rendezvousScore(node string, kh uint64) uint64 {
	return splitmix64(fnv64a(node) ^ kh)
}

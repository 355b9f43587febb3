package bitrand

// mix64 is the SplitMix64 finalizer: a full-avalanche 64-bit mixer.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// hashInit is the state every hash starts absorbing from.
const hashInit = 0x6a09e667f3bcc909

// absorb folds vals into the hash state h, one mix per value.
func absorb(h uint64, vals []uint64) uint64 {
	for _, v := range vals {
		h = mix64(h^v) + 0x9e3779b97f4a7c15
	}
	return h
}

// HashPrefix absorbs a common leading run of values and returns the
// unfinished state, so callers hashing many tuples that share a prefix pay
// for it once: HashFrom(HashPrefix(a...), b...) == Hash64(a..., b...).
func HashPrefix(vals ...uint64) uint64 { return absorb(hashInit, vals) }

// HashFrom absorbs the remaining values into a HashPrefix state and
// finalizes it.
func HashFrom(h uint64, vals ...uint64) uint64 { return mix64(absorb(h, vals)) }

// Hash64 mixes the given values into a single 64-bit hash. It is
// deterministic and stateless: oblivious adversaries use it to derive
// per-(round, edge) decisions from a seed committed before the execution.
func Hash64(vals ...uint64) uint64 { return HashFrom(hashInit, vals...) }

// UnitFloat maps a 64-bit hash to [0, 1) by its top 53 bits: HashFloat is
// UnitFloat(Hash64(vals...)), and UnitFloat(HashFrom(h, vals...)) is the
// same float for a prefixed tuple.
func UnitFloat(h uint64) float64 { return float64(h>>11) / (1 << 53) }

// HashFloat maps the hash of the given values to [0, 1).
func HashFloat(vals ...uint64) float64 { return UnitFloat(Hash64(vals...)) }

// Package ycsb generates YCSB-style workloads (Cooper et al., SoCC 2010)
// for the paper's Fig 9 comparison: read-only (R), half-and-half (UR) and
// update-only (U) operation mixes over a keyspace chosen with a Zipfian
// distribution — the skew that produces the ~5.5% lock collisions the paper
// reports.
package ycsb

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
)

// OpKind is a workload operation type.
type OpKind int

// Operation kinds.
const (
	Read OpKind = iota + 1
	Update
)

// Workload names from the paper's Fig 9.
const (
	WorkloadR  = "R"  // 100% reads
	WorkloadUR = "UR" // 50% reads, 50% updates
	WorkloadU  = "U"  // 100% updates
)

// Request distributions over the keyspace.
const (
	// DistZipfian is YCSB's default hot-key skew (the paper's Fig 9 setting).
	DistZipfian = "zipfian"
	// DistUniform draws every key with equal probability — the standard
	// YCSB "uniform" requestdistribution setting, used by the scale-out campaign
	// where throughput rather than contention is under test.
	DistUniform = "uniform"
)

// Config describes a workload.
type Config struct {
	// Workload selects the op mix: WorkloadR, WorkloadUR or WorkloadU.
	Workload string
	// Records is the keyspace size. Defaults to 1000.
	Records int
	// Distribution selects how keys are drawn: DistZipfian (default) or
	// DistUniform.
	Distribution string
}

const (
	// valueSize is the update payload size in bytes: the paper's default
	// data size.
	valueSize = 10
	// zipfTheta is the Zipfian skew: YCSB's standard constant.
	zipfTheta = 0.99
)

// Op is one generated operation.
type Op struct {
	Kind  OpKind
	Key   string
	Value []byte
}

// Generator produces operations. Not safe for concurrent use; give each
// load-generator thread its own (seeded) Generator.
type Generator struct {
	cfg Config
	rng *rand.Rand
	zip *Zipfian
	val []byte
}

// NewGenerator builds a generator for cfg with its own RNG.
func NewGenerator(cfg Config, seed int64) (*Generator, error) {
	if cfg.Records == 0 {
		cfg.Records = 1000
	}
	if cfg.Distribution == "" {
		cfg.Distribution = DistZipfian
	}
	switch cfg.Workload {
	case WorkloadR, WorkloadUR, WorkloadU:
	default:
		return nil, fmt.Errorf("ycsb: unknown workload %q", cfg.Workload)
	}
	rng := rand.New(rand.NewSource(seed))
	val := make([]byte, valueSize)
	for i := range val {
		val[i] = byte('a' + i%26)
	}
	g := &Generator{cfg: cfg, rng: rng, val: val}
	switch cfg.Distribution {
	case DistZipfian:
		g.zip = NewZipfian(cfg.Records, zipfTheta, rng)
	case DistUniform:
	default:
		return nil, fmt.Errorf("ycsb: unknown distribution %q", cfg.Distribution)
	}
	return g, nil
}

// Next returns the next operation.
func (g *Generator) Next() Op {
	idx := 0
	if g.zip != nil {
		idx = g.zip.Next()
	} else {
		idx = g.rng.Intn(g.cfg.Records)
	}
	key := fmt.Sprintf("user%06d", idx)
	kind := Read
	switch g.cfg.Workload {
	case WorkloadU:
		kind = Update
	case WorkloadUR:
		if g.rng.Intn(2) == 0 {
			kind = Update
		}
	}
	op := Op{Kind: kind, Key: key}
	if kind == Update {
		op.Value = g.val
	}
	return op
}

// Keys enumerates the full keyspace (for preloading).
func (g *Generator) Keys() []string {
	out := make([]string, g.cfg.Records)
	for i := range out {
		out[i] = fmt.Sprintf("user%06d", i)
	}
	return out
}

// Zipfian draws integers in [0, n) with P(i) ∝ 1/(i+1)^theta, using the
// Gray et al. rejection-inversion method as in the YCSB reference
// implementation.
type Zipfian struct {
	n     int
	theta float64
	alpha float64
	zetan float64
	eta   float64
	rng   *rand.Rand
}

// NewZipfian precomputes the distribution constants for n items.
func NewZipfian(n int, theta float64, rng *rand.Rand) *Zipfian {
	z := &Zipfian{n: n, theta: theta, rng: rng}
	z.zetan = zeta(n, theta)
	z.alpha = 1.0 / (1.0 - theta)
	z.eta = (1 - math.Pow(2.0/float64(n), 1-theta)) / (1 - zeta(2, theta)/z.zetan)
	return z
}

// zetaCache memoises zeta(n, theta): the harmonic sum is O(n) and the
// scale campaign builds hundreds of generators over million-key spaces,
// all sharing a handful of (n, theta) pairs.
var zetaCache struct {
	sync.Mutex
	m map[zetaKey]float64
}

type zetaKey struct {
	n     int
	theta float64
}

func zeta(n int, theta float64) float64 {
	k := zetaKey{n, theta}
	zetaCache.Lock()
	if v, ok := zetaCache.m[k]; ok {
		zetaCache.Unlock()
		return v
	}
	zetaCache.Unlock()
	sum := 0.0
	for i := 1; i <= n; i++ {
		sum += 1.0 / math.Pow(float64(i), theta)
	}
	zetaCache.Lock()
	if zetaCache.m == nil {
		zetaCache.m = make(map[zetaKey]float64)
	}
	zetaCache.m[k] = sum
	zetaCache.Unlock()
	return sum
}

// Next draws the next item. Item 0 is the hottest.
func (z *Zipfian) Next() int {
	u := z.rng.Float64()
	uz := u * z.zetan
	if uz < 1.0 {
		return 0
	}
	if uz < 1.0+math.Pow(0.5, z.theta) {
		return 1
	}
	idx := int(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if idx >= z.n {
		idx = z.n - 1
	}
	return idx
}

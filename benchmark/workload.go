package main

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"

	"sconrep/internal/cluster"
	"sconrep/internal/core"
	"sconrep/internal/replica"
	"sconrep/internal/sql"
	"sconrep/internal/storage"
	"sconrep/internal/workload/micro"
	"sconrep/internal/workload/tpcw"
)

// spec is one workload: a schema, a transaction mix, a key
// distribution, a consistency mode and a durability configuration.
type spec struct {
	name string
	// why is the one-line reason the workload exists (BENCHMARK.json
	// carries the same text).
	why  string
	mode core.Mode
	// tpcw selects the TPC-W shopping mix over the micro schema.
	tpcw bool
	// updatePct is the share of update transactions (micro only).
	updatePct int
	// zipfS > 0 draws keys per table from Zipf(s); 0 means uniform.
	zipfS float64
	// durable puts the certifier on a forced file WAL and the replicas
	// on pstore data directories.
	durable bool
	// tailP is the percentile lat_tail_ms reports: the highest that
	// keeps at least ten samples beyond it in the slowest 15 s run seen.
	// It is fixed per workload so that the metric does not change its
	// meaning when a run's sample count crosses a threshold.
	tailP float64
}

var specs = []spec{
	{
		name: "read-only", mode: core.Coarse, tailP: 99.9,
		why: "0% updates: only wire request/response, lb dispatch, sql parse+exec and storage reads run; certifier, refresh and apply must show no move",
	},
	{
		name: "update-heavy", mode: core.Coarse, updatePct: 100, tailP: 99.9,
		why: "100% single-row updates, uniform keys, memory WAL: the full commit path (certify, group log, refresh fan-out, apply, CSC start delay)",
	},
	{
		name: "mixed-skew", mode: core.Fine, updatePct: 50, zipfS: 1.1, tailP: 99.9,
		why: "50% updates on Zipf(1.1) keys under FSC: readers contend with the applier, hot version chains, real certification aborts and retries",
	},
	{
		name: "tpcw-durable", mode: core.Eager, tpcw: true, durable: true, tailP: 99,
		why: "TPC-W shopping mix under ESC, certifier WAL fsynced per record, replicas on pstore: sql planner, wal force, checkpoints, global-commit wait",
	},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// The micro schema is the paper's: four tables of 10 000 rows.
var microScale = micro.DefaultScale()

func microTable(i int) string { return fmt.Sprintf("micro%d", i) }

// load returns the deterministic bulk loader every replica runs.
func (sp spec) load() func(*storage.Engine) error {
	if sp.tpcw {
		return func(e *storage.Engine) error { return tpcw.Load(e, tpcw.DefaultScale()) }
	}
	return func(e *storage.Engine) error { return micro.Load(e, microScale) }
}

// register feeds the workload's transaction table-sets to the balancer.
func (sp spec) register(c *cluster.Cluster) {
	if sp.tpcw {
		tpcw.RegisterAll(c)
	} else {
		micro.RegisterAll(c)
	}
}

// rng is splitmix64: the generator's only randomness, so an op
// sequence depends on -seed alone and not on math/rand's stream.
type rng struct{ s uint64 }

func newRng(seed int64, stream int) *rng {
	r := &rng{s: uint64(seed)*0x9e3779b97f4a7c15 + uint64(stream+1)*0xbf58476d1ce4e5b9}
	r.next()
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// float returns a value in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// zipf samples ranks 0..n-1 with P(k) ∝ 1/(k+1)^s from a precomputed
// CDF; rank 0 is the hottest key.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) *zipf {
	cdf := make([]float64, n)
	sum := 0.0
	for k := 0; k < n; k++ {
		sum += 1 / math.Pow(float64(k+1), s)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	return &zipf{cdf: cdf}
}

func (z *zipf) sample(r *rng) int {
	k := sort.SearchFloat64s(z.cdf, r.float())
	if k >= len(z.cdf) {
		k = len(z.cdf) - 1
	}
	return k
}

// op is one generated micro transaction.
type op struct {
	update bool
	table  int
	key    int64
}

// microGen is the micro workload's op generator.
type microGen struct {
	r         *rng
	updatePct int
	zipf      *zipf
}

func newMicroGen(sp spec, seed int64, stream int) *microGen {
	g := &microGen{r: newRng(seed, stream), updatePct: sp.updatePct}
	if sp.zipfS > 0 {
		g.zipf = newZipf(microScale.RowsPerTable, sp.zipfS)
	}
	return g
}

func (g *microGen) next() op {
	return g.nextOf(g.r.intn(100) < g.updatePct)
}

// nextOf draws table and key for a transaction of the given kind; the
// layer replay uses it to get both kinds from every workload's key
// distribution.
func (g *microGen) nextOf(update bool) op {
	o := op{update: update, table: g.r.intn(micro.NumTables)}
	if g.zipf != nil {
		o.key = int64(g.zipf.sample(g.r))
	} else {
		o.key = int64(g.r.intn(microScale.RowsPerTable))
	}
	return o
}

// The benchmark's own statements: the program sees only their text.
var microRead, microUpdate [micro.NumTables]*sql.Prepared

func init() {
	for t := 0; t < micro.NumTables; t++ {
		microRead[t] = mustPrepare(fmt.Sprintf(`SELECT val, txt FROM %s WHERE id = ?`, microTable(t)))
		microUpdate[t] = mustPrepare(fmt.Sprintf(`UPDATE %s SET val = val + 1 WHERE id = ?`, microTable(t)))
	}
}

func mustPrepare(src string) *sql.Prepared {
	p, err := sql.Prepare(src)
	if err != nil {
		panic(err)
	}
	return p
}

func (o op) stmt() *sql.Prepared {
	if o.update {
		return microUpdate[o.table]
	}
	return microRead[o.table]
}

func (o op) txnName() string {
	if o.update {
		return micro.UpdateTxnName(o.table)
	}
	return micro.ReadTxnName(o.table)
}

// tpcwGen picks TPC-W interactions by weight from the shopping mix.
type tpcwGen struct {
	r     *rng
	mix   *tpcw.Mix
	total int
	ctx   *tpcw.Ctx
}

func newTpcwGen(seed int64, stream int) *tpcwGen {
	g := &tpcwGen{r: newRng(seed, stream), mix: tpcw.ShoppingMix()}
	for _, in := range g.mix.Interactions {
		g.total += in.Weight
	}
	// The browser context draws its parameters from its own stream,
	// seeded from ours.
	g.ctx = tpcw.NewCtx(tpcw.DefaultScale(), stream, int64(g.r.next()>>1))
	return g
}

func (g *tpcwGen) next() *tpcw.Interaction {
	n := g.r.intn(g.total)
	for i := range g.mix.Interactions {
		n -= g.mix.Interactions[i].Weight
		if n < 0 {
			return &g.mix.Interactions[i]
		}
	}
	return &g.mix.Interactions[len(g.mix.Interactions)-1]
}

// outcome is what one attempt of a transaction reported.
type outcome struct {
	// version is the commit version (updates) the visibility probe
	// waits for; 0 when unknown or read-only.
	version uint64
	err     error
}

// client generates one session's transactions and runs single attempts
// of them; the driver owns timing, retries and accounting.
type client interface {
	// next draws the next transaction and reports whether it is an
	// update.
	next() (update bool)
	// attempt runs the drawn transaction once. tr may be nil.
	attempt(s *cluster.Session, tr *spanRecorder, parent spanRef) outcome
}

func newClient(sp spec, c *cluster.Cluster, seed int64, stream int) client {
	if sp.tpcw {
		return &tpcwClient{c: c, g: newTpcwGen(seed, stream)}
	}
	return &microClient{g: newMicroGen(sp, seed, stream)}
}

type microClient struct {
	g   *microGen
	cur op
}

func (m *microClient) next() bool {
	m.cur = m.g.next()
	return m.cur.update
}

func (m *microClient) attempt(s *cluster.Session, tr *spanRecorder, parent spanRef) outcome {
	sp := tr.start("begin", parent)
	tx, err := s.Begin(m.cur.txnName())
	tr.end(sp)
	if err != nil {
		return outcome{err: err}
	}
	sp = tr.start("exec", parent)
	_, err = tx.Exec(m.cur.stmt(), m.cur.key)
	tr.end(sp)
	if err != nil {
		tx.Abort()
		return outcome{err: err}
	}
	sp = tr.start("commit", parent)
	res, err := tx.Commit()
	tr.end(sp)
	if err != nil {
		return outcome{err: err}
	}
	if res.ReadOnly {
		return outcome{}
	}
	return outcome{version: res.Version}
}

// tpcwClient runs whole interactions: Begin/Exec/Commit happen inside
// the workload package, so the benchmark sees one span per interaction
// and learns the commit version from the certifier.
type tpcwClient struct {
	c   *cluster.Cluster
	g   *tpcwGen
	cur *tpcw.Interaction
}

func (t *tpcwClient) next() bool {
	t.cur = t.g.next()
	return t.cur.Update
}

func (t *tpcwClient) attempt(s *cluster.Session, tr *spanRecorder, parent spanRef) outcome {
	sp := tr.start("interaction", parent)
	err := t.cur.Run(s, t.g.ctx)
	tr.end(sp)
	if err != nil && !errors.Is(err, tpcw.ErrEmptyCart) {
		return outcome{err: err}
	}
	if !t.cur.Update || err != nil {
		return outcome{}
	}
	// The interaction does not return its commit version; the
	// certifier's current version is an upper bound on it (it may
	// include the other session's next commit).
	return outcome{version: t.c.Certifier().Version()}
}

// retryable reports whether the client would re-issue the transaction:
// it was aborted by certification or early certification. The message
// is matched as well as the error chain because tpcw.BuyConfirm formats
// the error of its customer and stock reads with %v, which drops the
// sentinel; unmatched, about one tpcw-durable run in ten counted such
// an abort as a failed transaction.
func retryable(err error) bool {
	if errors.Is(err, replica.ErrCertifyConflict) || errors.Is(err, replica.ErrEarlyAbort) {
		return true
	}
	msg := err.Error()
	return strings.Contains(msg, replica.ErrCertifyConflict.Error()) || strings.Contains(msg, replica.ErrEarlyAbort.Error())
}

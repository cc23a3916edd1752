package main

import (
	"bufio"
	"bytes"
	"net"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"sconrep/internal/cluster"
	"sconrep/internal/obs"
	"sconrep/internal/wire"
)

// linkCount counts what the dialing side of one link label moved.
// msgs is socket writes plus non-empty socket reads: every request,
// response and acknowledgment is one, and a refresh frame that carries
// a whole batch is one too.
type linkCount struct {
	msgs, bytes atomic.Int64
}

// linkCounters maps a link label to its counter. The map is filled
// before the cluster dials and read-only afterwards.
type linkCounters map[string]*linkCount

func newLinkCounters() linkCounters {
	lc := linkCounters{cluster.LinkClient: new(linkCount)}
	for i := 0; i < numReplicas; i++ {
		lc[cluster.CertLink(i)] = new(linkCount)
		lc[cluster.ReplicaLink(i)] = new(linkCount)
	}
	return lc
}

// dialerFor plugs into cluster.NetConfig.DialerFor.
func (lc linkCounters) dialerFor(link string) wire.Dialer {
	cnt := lc[link]
	if cnt == nil {
		return nil
	}
	return func(network, addr string) (net.Conn, error) {
		c, err := net.Dial(network, addr)
		if err != nil {
			return nil, err
		}
		return &countingConn{Conn: c, cnt: cnt}, nil
	}
}

// sum adds up the links whose label starts with prefix.
func (lc linkCounters) sum(prefix string) (msgs, bytes int64) {
	for label, c := range lc {
		if strings.HasPrefix(label, prefix) {
			msgs += c.msgs.Load()
			bytes += c.bytes.Load()
		}
	}
	return msgs, bytes
}

type countingConn struct {
	net.Conn
	cnt *linkCount
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.cnt.msgs.Add(1)
		c.cnt.bytes.Add(int64(n))
	}
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	if n > 0 {
		c.cnt.msgs.Add(1)
		c.cnt.bytes.Add(int64(n))
	}
	return n, err
}

// scrape reads the registry's instruments by name, summed over label
// sets (the three replicas share one registry); histogram _bucket
// lines are skipped, _sum and _count kept.
func scrape(reg *obs.Registry) map[string]float64 {
	var buf bytes.Buffer
	reg.WritePrometheus(&buf)
	out := make(map[string]float64)
	sc := bufio.NewScanner(&buf)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		if strings.HasSuffix(name, "_bucket") {
			continue
		}
		out[name] += v
	}
	return out
}

// clusterSpans collects the cluster's retained dtrace spans from every
// node and drops traces that may have lost spans to ring eviction:
// only spans that started after the newest ring's oldest retained span
// are kept, so every kept parent still has its children.
func clusterSpans(e *env, epoch time.Time) []span {
	var all []span
	cutoff := int64(0)
	for _, coll := range e.colls {
		spans := fromDTrace(coll.Recent(0), epoch)
		if coll.Dropped() > 0 && len(spans) > 0 {
			// Recent is newest first.
			if oldest := spans[len(spans)-1].Start; oldest > cutoff {
				cutoff = oldest
			}
		}
		all = append(all, spans...)
	}
	if cutoff == 0 {
		return all
	}
	kept := all[:0]
	for _, s := range all {
		if s.Start > cutoff {
			kept = append(kept, s)
		}
	}
	return kept
}

// selfByName sums self time per span name over spans whose start lies
// in [from, to), and counts the spans of each name.
func selfByName(spans []span, from, to int64) (selfNs map[string]int64, count map[string]int, orphans int) {
	self, orphans := selfTimes(spans)
	selfNs = make(map[string]int64)
	count = make(map[string]int)
	for i := range spans {
		s := &spans[i]
		if s.Start < from || s.Start >= to {
			continue
		}
		selfNs[s.Name] += self[s.ID]
		count[s.Name]++
	}
	return selfNs, count, orphans
}

// sortedDurations returns the durations (µs), ascending, of the named
// spans that started in [from, to).
func sortedDurations(spans []span, name string, from, to int64) []float64 {
	var out []float64
	for i := range spans {
		s := &spans[i]
		if s.Name == name && s.Start >= from && s.Start < to {
			out = append(out, float64(s.dur())/1e3)
		}
	}
	sort.Float64s(out)
	return out
}

// Command sconrepd runs one node of a distributed sconrep deployment —
// the multi-process topology of the paper's Figure 2 over TCP.
//
// A three-replica cluster on one machine:
//
//	sconrepd -role certifier -listen :7100 &
//	sconrepd -role replica -id 0 -listen :7110 -certifier :7100 -bootstrap schema.sql &
//	sconrepd -role replica -id 1 -listen :7111 -certifier :7100 -bootstrap schema.sql &
//	sconrepd -role replica -id 2 -listen :7112 -certifier :7100 -bootstrap schema.sql &
//	sconrepd -role gateway -listen :7000 -mode FSC -replicas :7110,:7111,:7112 &
//	sconrepd -role client -connect :7000        # interactive SQL
//
// The bootstrap file contains semicolon-terminated SQL statements and
// MUST be identical for every replica (deterministic load); the
// certifier adopts the replicas' bootstrapped version on first
// contact.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"sconrep/internal/certifier"
	"sconrep/internal/core"
	"sconrep/internal/obs"
	"sconrep/internal/obs/dtrace"
	"sconrep/internal/pstore"
	"sconrep/internal/replica"
	"sconrep/internal/shard"
	"sconrep/internal/sql"
	"sconrep/internal/storage"
	"sconrep/internal/wal"
	"sconrep/internal/wire"
)

func main() {
	role := flag.String("role", "", "certifier | replica | gateway | client")
	listen := flag.String("listen", "", "listen address (certifier/replica/gateway)")
	id := flag.Int("id", 0, "replica id")
	certAddr := flag.String("certifier", "", "certifier address (replica role)")
	replicasFlag := flag.String("replicas", "", "comma-separated replica addresses (gateway role)")
	modeFlag := flag.String("mode", "CSC", "consistency mode (gateway role)")
	bootstrap := flag.String("bootstrap", "", "SQL bootstrap file (replica role)")
	dataDir := flag.String("data-dir", "", "replica role: durable storage directory (WAL + fuzzy checkpoints); empty runs in memory and rebuilds from the certifier's history on restart")
	checkpointEvery := flag.Uint64("checkpoint-every", 0, "replica role: logged versions between automatic fuzzy checkpoints (0 = default; needs -data-dir)")
	walPath := flag.String("wal", "", "decision log path (certifier role)")
	connect := flag.String("connect", "", "gateway address (client role)")
	session := flag.String("session", "cli", "session id (client role)")
	eager := flag.Bool("eager", false, "enable eager global-commit tracking (certifier role; required when the gateway runs -mode ESC)")
	obsAddr := flag.String("obs", "", "observability listen address (server roles): serves /metrics, /healthz, /traces, /debug/pprof")
	obsMaxLag := flag.Uint64("obs-maxlag", 100, "replica /healthz reports unready when the worst per-table lag (certifier table version - applied table version) exceeds this")
	callTimeout := flag.Duration("call-timeout", 15*time.Second, "deadline for one request/response exchange; must exceed -sub-lease or eager commits can time out while the certifier waits for a leased replica (0 = none)")
	longPollTimeout := flag.Duration("long-poll-timeout", 30*time.Second, "deadline for deliberately long-blocking calls such as the eager global-commit wait (0 = none)")
	streamIdle := flag.Duration("stream-idle", 5*time.Second, "server-side idle teardown and refresh-stream partition detector (0 = none)")
	backoffMin := flag.Duration("backoff-min", 20*time.Millisecond, "initial reconnect/retry backoff")
	backoffMax := flag.Duration("backoff-max", time.Second, "backoff ceiling")
	subLease := flag.Duration("sub-lease", 10*time.Second, "certifier role: how long a replica stays subscribed after its refresh stream drops")
	streamGrace := flag.Duration("stream-grace", 500*time.Millisecond, "replica role: how long after losing the refresh stream the replica keeps serving; must stay below -sub-lease")
	shards := flag.Int("shards", 1, "certifier/replica/gateway roles: number of certification shards; every role of one deployment must agree")
	shardTables := flag.String("shard-tables", "", "explicit table→shard pins as table=shard[,table=shard...]; unlisted tables hash over [0,shards). Must be identical on every role")
	serveShards := flag.String("serve-shards", "", "replica role: comma-separated shard IDs this replica subscribes to (empty = all); versions certified elsewhere arrive as skip markers")
	replicaShards := flag.String("replica-shards", "", "gateway role: per-replica served shards as idx=shard[+shard...][,idx=...] matching each replica's -serve-shards (replicas absent from the list serve all shards); enables shard-aware routing")
	flag.Parse()

	smap, err := buildShardMap(*shards, *shardTables)
	if err != nil {
		log.Fatal(err)
	}

	wireOpts := []wire.Option{
		wire.WithTimeouts(wire.Timeouts{Call: *callTimeout, LongPoll: *longPollTimeout, Idle: *streamIdle}),
		wire.WithBackoff(wire.Backoff{Min: *backoffMin, Max: *backoffMax}),
	}

	switch *role {
	case "certifier":
		runCertifier(*listen, *walPath, *eager, *obsAddr, smap, append(wireOpts, wire.WithSubLease(*subLease)))
	case "replica":
		served, err := parseShardList(*serveShards)
		if err != nil {
			log.Fatalf("-serve-shards: %v", err)
		}
		runReplica(*listen, *id, *certAddr, *bootstrap, *dataDir, *checkpointEvery, *obsAddr, *obsMaxLag, *streamGrace, smap, served, wireOpts)
	case "gateway":
		served, err := parseReplicaShards(*replicaShards)
		if err != nil {
			log.Fatalf("-replica-shards: %v", err)
		}
		runGateway(*listen, *modeFlag, *replicasFlag, *obsAddr, smap, served, wireOpts)
	case "client":
		runClient(*connect, *session, wireOpts)
	default:
		log.Fatalf("unknown -role %q (want certifier, replica, gateway, or client)", *role)
	}
}

// buildShardMap turns the -shards / -shard-tables flags into a shard
// map; nil when sharding is off (n <= 1).
func buildShardMap(n int, tablesSpec string) (*shard.Map, error) {
	if n <= 1 {
		if tablesSpec != "" {
			return nil, fmt.Errorf("-shard-tables requires -shards > 1")
		}
		return nil, nil
	}
	assign := map[string]int{}
	if tablesSpec != "" {
		for _, pair := range strings.Split(tablesSpec, ",") {
			table, shardStr, ok := strings.Cut(strings.TrimSpace(pair), "=")
			if !ok {
				return nil, fmt.Errorf("-shard-tables: %q is not table=shard", pair)
			}
			s, err := strconv.Atoi(shardStr)
			if err != nil {
				return nil, fmt.Errorf("-shard-tables: %q: %w", pair, err)
			}
			assign[table] = s
		}
	}
	return shard.New(n, assign)
}

// parseShardList parses a comma-separated shard ID list; nil for "".
func parseShardList(spec string) ([]int, error) {
	if spec == "" {
		return nil, nil
	}
	var out []int
	for _, f := range strings.Split(spec, ",") {
		s, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// parseReplicaShards parses idx=shard[+shard...][,idx=...] into the
// balancer's served map; nil for "".
func parseReplicaShards(spec string) (map[int][]int, error) {
	if spec == "" {
		return nil, nil
	}
	out := map[int][]int{}
	for _, ent := range strings.Split(spec, ",") {
		idxStr, shardsStr, ok := strings.Cut(strings.TrimSpace(ent), "=")
		if !ok {
			return nil, fmt.Errorf("%q is not idx=shard+shard", ent)
		}
		idx, err := strconv.Atoi(idxStr)
		if err != nil {
			return nil, err
		}
		var served []int
		for _, f := range strings.Split(shardsStr, "+") {
			s, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil {
				return nil, err
			}
			served = append(served, s)
		}
		out[idx] = served
	}
	return out, nil
}

// serveObs starts the observability endpoint, fatally on bind errors
// (a requested but unserved endpoint is worse than no endpoint).
func serveObs(addr, role string, o obs.Options) {
	srv, err := obs.Serve(addr, o)
	if err != nil {
		log.Fatalf("obs: %v", err)
	}
	log.Printf("%s observability on http://%s (/metrics /healthz /traces /debug/pprof)", role, srv.Addr())
}

func runCertifier(listen, walPath string, eager bool, obsAddr string, smap *shard.Map, wireOpts []wire.Option) {
	var opts []certifier.Option
	if smap != nil {
		opts = append(opts, certifier.WithShards(smap))
	}
	if eager {
		opts = append(opts, certifier.WithEager())
	}
	if walPath == "" {
		serveCertifier(certifier.New(opts...), listen, obsAddr, wireOpts)
		return
	}
	cert, err := openCertifier(walPath, opts)
	if err != nil {
		log.Fatal(err)
	}
	serveCertifier(cert, listen, obsAddr, wireOpts)
}

// openCertifier builds a certifier on the decision log at walPath:
// prior decisions are recovered in one replay, new ones append to the
// same file. A crash can leave a torn final frame; the replay reports
// the valid prefix and the file is truncated to it, so the log appends
// cleanly instead of burying new records behind garbage. A replay error
// returns before the file is touched.
func openCertifier(walPath string, opts []certifier.Option) (_ *certifier.Certifier, err error) {
	// Append mode: opening writes nothing until the first decision.
	l, err := wal.Open(walPath)
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			l.Close()
		}
	}()
	cert := certifier.New(append(opts, certifier.WithWAL(l))...)
	var valid int64
	err = cert.RestoreFromWAL(func(fn func(*wal.Record) error) error {
		var err error
		valid, err = wal.ReplayFileN(walPath, fn)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("wal replay: %w", err)
	}
	fi, err := os.Stat(walPath)
	if err != nil {
		return nil, err
	}
	if fi.Size() > valid {
		log.Printf("wal: discarding torn tail (%d of %d bytes valid)", valid, fi.Size())
		if err := os.Truncate(walPath, valid); err != nil {
			return nil, fmt.Errorf("wal truncate: %w", err)
		}
	}
	return cert, nil
}

func serveCertifier(cert *certifier.Certifier, listen, obsAddr string, wireOpts []wire.Option) {
	srv, err := wire.ServeCertifier(cert, listen, wireOpts...)
	if err != nil {
		log.Fatal(err)
	}
	if obsAddr != "" {
		reg := obs.NewRegistry()
		cert.EnableObs(reg)
		srv.EnableObs(reg)
		coll := dtrace.NewCollector(4096)
		cert.EnableTracing(dtrace.New("certifier", coll))
		serveObs(obsAddr, "certifier", obs.Options{
			Registry: reg,
			Spans:    coll,
			Health: func() obs.Health {
				return obs.Health{Ready: true, Role: "certifier", Detail: map[string]any{
					"version":  cert.Version(),
					"replicas": len(cert.Replicas()),
				}}
			},
		})
	}
	log.Printf("certifier serving on %s (version %d)", srv.Addr(), cert.Version())
	select {}
}

func runReplica(listen string, id int, certAddr, bootstrap, dataDir string, checkpointEvery uint64, obsAddr string, maxLag uint64, streamGrace time.Duration, smap *shard.Map, served []int, wireOpts []wire.Option) {
	if certAddr == "" {
		log.Fatal("replica role requires -certifier")
	}
	if served != nil && smap == nil {
		log.Fatal("-serve-shards requires -shards > 1 (and the same -shard-tables as the certifier)")
	}
	var backend storage.Backend
	var st *pstore.Store
	if dataDir != "" {
		// Durable replica: restore the newest verifying fuzzy checkpoint
		// plus the contiguous WAL suffix; a wiped directory re-runs the
		// bootstrap. Whatever the disk is missing, the certifier
		// backfills on resubscription.
		var boot func(e *storage.Engine) error
		if bootstrap != "" {
			boot = func(e *storage.Engine) error { return loadBootstrap(e, bootstrap) }
		}
		var err error
		st, err = pstore.Open(dataDir, pstore.Options{
			CheckpointEvery: checkpointEvery,
			Bootstrap:       boot,
		})
		if err != nil {
			log.Fatalf("data-dir: %v", err)
		}
		defer st.Close()
		stats := st.Stats()
		log.Printf("replica %d recovered to version %d from %s (checkpoint %d, took %s)",
			id, st.Engine().Version(), dataDir, stats.CheckpointVersion, stats.RecoveryTook)
		backend = st
	} else {
		eng := storage.NewEngine()
		if bootstrap != "" {
			if err := loadBootstrap(eng, bootstrap); err != nil {
				log.Fatalf("bootstrap: %v", err)
			}
		}
		backend = storage.MemBackend{Eng: eng}
	}
	eng := backend.Engine()
	cc := wire.DialCertifier(certAddr, id, eng.Version(),
		append(wireOpts, wire.WithVLocal(eng.Version), wire.WithShards(served))...)
	rep := replica.NewWithBackend(replica.Config{ID: id, EarlyCert: true}, backend, cc)
	// Serve gate: while the refresh stream has been dead longer than the
	// grace (or the replica is still catching up to the version floor it
	// saw at resubscribe), requests carrying a begin header fail with
	// ErrUnavailable and the gateway routes elsewhere — a partitioned replica must not
	// serve possibly stale strong reads.
	gate := func() error {
		if cc.Ready(streamGrace) {
			return nil
		}
		return wire.ErrUnavailable
	}
	srv, err := wire.ServeReplica(rep, listen, append(wireOpts, wire.WithGate(gate))...)
	if err != nil {
		log.Fatal(err)
	}
	if obsAddr != "" {
		reg := obs.NewRegistry()
		tr := obs.NewTraceRecorder(512)
		rep.EnableObs(reg, tr)
		srv.EnableObs(reg)
		if st != nil {
			reg.GaugeFunc("sconrep_pstore_checkpoint_version",
				"Version the last durable fuzzy checkpoint captured.",
				func() float64 { return float64(st.Stats().CheckpointVersion) })
			reg.GaugeFunc("sconrep_pstore_checkpoint_age_seconds",
				"Seconds since the last durable fuzzy checkpoint (0 before the first).",
				func() float64 {
					at := st.Stats().LastCheckpointAt
					if at.IsZero() {
						return 0
					}
					return time.Since(at).Seconds()
				})
			reg.GaugeFunc("sconrep_pstore_checkpoint_seconds",
				"Duration of the last fuzzy checkpoint write.",
				func() float64 { return st.Stats().LastCheckpointTook.Seconds() })
			reg.GaugeFunc("sconrep_pstore_wal_bytes",
				"Live WAL footprint: bytes across the retained log segments.",
				func() float64 { return float64(st.Stats().WALBytes) })
			reg.GaugeFunc("sconrep_pstore_recovery_seconds",
				"This process's startup recovery time: checkpoint restore plus WAL suffix replay.",
				func() float64 { return st.Stats().RecoveryTook.Seconds() })
		}
		coll := dtrace.NewCollector(4096)
		rep.EnableTracing(dtrace.New(fmt.Sprintf("replica-%d", id), coll))
		serveObs(obsAddr, "replica", obs.Options{
			Registry: reg,
			Traces:   tr,
			Spans:    coll,
			// Readiness is replication lag, measured per table: the
			// certifier's last committed version for each table against
			// this replica's applied version of it. The worst table
			// governs — a scalar version delta over-reports lag when the
			// missing versions only touch tables this replica already has
			// current (e.g. after a refresh batch applied out of a larger
			// backlog). A crashed replica or one whose worst table lags
			// more than maxLag versions is unready.
			Health: func() obs.Health {
				vlocal := rep.Version()
				serving := cc.Ready(streamGrace)
				detail := map[string]any{"replica": id, "vlocal": vlocal, "crashed": rep.Crashed(), "serving": serving}
				ready := !rep.Crashed() && serving
				if certTV, err := cc.TableVersions(); err != nil {
					detail["certifier_error"] = err.Error()
					ready = false
				} else {
					// A partial subscription deliberately never applies
					// unserved tables' data; their lag is meaningless and
					// would otherwise grow without bound.
					if served != nil {
						for t := range certTV {
							if !shard.Covers(served, []int{smap.Of(t)}) {
								delete(certTV, t)
							}
						}
					}
					names := make([]string, 0, len(certTV))
					for t := range certTV {
						names = append(names, t)
					}
					engTV := eng.TableVersionsAt(names, vlocal)
					lags := make(map[string]uint64, len(certTV))
					var maxTableLag uint64
					for t, cv := range certTV {
						var lag uint64
						if lv := engTV[t]; cv > lv {
							lag = cv - lv
						}
						lags[t] = lag
						if lag > maxTableLag {
							maxTableLag = lag
						}
					}
					detail["table_lag"] = lags
					detail["lag"] = maxTableLag
					if maxTableLag > maxLag {
						ready = false
					}
				}
				return obs.Health{Ready: ready, Role: "replica", Detail: detail}
			},
		})
	}
	log.Printf("replica %d serving on %s (bootstrapped at version %d)", id, srv.Addr(), eng.Version())
	select {}
}

// loadBootstrap executes semicolon-terminated statements from a file.
func loadBootstrap(eng *storage.Engine, path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	for _, stmtText := range strings.Split(string(data), ";") {
		stmtText = strings.TrimSpace(stmtText)
		if stmtText == "" || strings.HasPrefix(stmtText, "--") {
			continue
		}
		tx := eng.Begin()
		if _, err := sql.Exec(tx, eng, stmtText); err != nil {
			tx.Abort()
			return fmt.Errorf("%q: %w", stmtText, err)
		}
		if _, err := tx.CommitLocal(); err != nil {
			return err
		}
	}
	return nil
}

func runGateway(listen, modeFlag, replicasFlag, obsAddr string, smap *shard.Map, served map[int][]int, wireOpts []wire.Option) {
	mode, err := core.ParseMode(modeFlag)
	if err != nil {
		log.Fatal(err)
	}
	if replicasFlag == "" {
		log.Fatal("gateway role requires -replicas")
	}
	if served != nil && smap == nil {
		log.Fatal("-replica-shards requires -shards > 1 (and the same -shard-tables as the certifier)")
	}
	addrs := strings.Split(replicasFlag, ",")
	gw, err := wire.ServeGateway(listen, mode, addrs, wireOpts...)
	if err != nil {
		log.Fatal(err)
	}
	if smap != nil {
		gw.Balancer().SetShardRouting(smap, served)
	}
	if obsAddr != "" {
		reg := obs.NewRegistry()
		gw.EnableObs(reg)
		coll := dtrace.NewCollector(4096)
		gw.Balancer().EnableTracing(dtrace.New("gateway", coll))
		serveObs(obsAddr, "gateway", obs.Options{
			Registry: reg,
			Spans:    coll,
			// The gateway is ready while it has at least one live
			// replica to route to.
			Health: func() obs.Health {
				live := gw.Balancer().LiveReplicas()
				return obs.Health{Ready: live > 0, Role: "gateway", Detail: map[string]any{
					"mode":          mode.String(),
					"live_replicas": live,
					"replicas":      len(addrs),
				}}
			},
		})
	}
	log.Printf("gateway serving on %s, mode %s, %d replicas", gw.Addr(), mode, len(addrs))
	select {}
}

func runClient(connect, session string, wireOpts []wire.Option) {
	if connect == "" {
		log.Fatal("client role requires -connect")
	}
	c, err := wire.Dial(connect, session, wireOpts...)
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()
	fmt.Println("connected; statements run in autocommit, or \\begin ... \\commit. \\quit exits.")
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	inTxn := false
	for {
		if inTxn {
			fmt.Print("txn> ")
		} else {
			fmt.Print("> ")
		}
		if !sc.Scan() {
			return
		}
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "":
		case line == "\\quit" || line == "\\q":
			return
		case line == "\\begin":
			// Eager on purpose: at a prompt, routing and gate errors belong
			// to \begin, and a mistyped first statement should not cost
			// the transaction.
			if err := c.Begin(""); err != nil {
				fmt.Println("error:", err)
			} else {
				inTxn = true
			}
		case line == "\\commit":
			v, ro, err := c.Commit()
			inTxn = false
			if err != nil {
				fmt.Println("error:", err)
			} else {
				fmt.Printf("committed at version %d (read-only=%v)\n", v, ro)
			}
		case line == "\\abort":
			_ = c.Abort()
			inTxn = false
		case strings.HasPrefix(line, "\\"):
			fmt.Println("commands: \\begin \\commit \\abort \\quit")
		default:
			if inTxn {
				printRes(c.Exec(line))
				continue
			}
			// Autocommit is one round trip for a read and two for an
			// update: the begin header rides on the statement, a commit
			// that wrote nothing is not answered, and a header request
			// that fails leaves no transaction to abort.
			c.Start("", nil, dtrace.SpanContext{})
			res, err := c.Exec(line)
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			if _, _, err := c.Commit(); err != nil {
				fmt.Println("commit error:", err)
				continue
			}
			printResOK(res)
		}
	}
}

func printRes(res *sql.Result, err error) {
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	printResOK(res)
}

func printResOK(res *sql.Result) {
	if res == nil {
		fmt.Println("ok")
		return
	}
	if len(res.Columns) == 0 {
		fmt.Printf("ok (%d rows affected)\n", res.Affected)
		return
	}
	fmt.Println(strings.Join(res.Columns, " | "))
	for _, row := range res.Rows {
		parts := make([]string, len(row))
		for i, v := range row {
			parts[i] = storage.FormatValue(v)
		}
		fmt.Println(strings.Join(parts, " | "))
	}
	fmt.Printf("(%d rows)\n", len(res.Rows))
}

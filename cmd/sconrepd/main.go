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
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"sconrep/internal/cluster"
	"sconrep/internal/core"
	"sconrep/internal/obs"
	"sconrep/internal/obs/dtrace"
	"sconrep/internal/replica"
	"sconrep/internal/shard"
	"sconrep/internal/sql"
	"sconrep/internal/storage"
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
	callTimeout := flag.Duration("call-timeout", 15*time.Second, "deadline for one request/response exchange; a client's or the gateway's eager commit is answered after the global commit, which waits up to -sub-lease for a replica whose stream dropped, so keep it above that (0 = none)")
	streamIdle := flag.Duration("stream-idle", 5*time.Second, "server-side idle teardown and refresh-stream partition detector (0 = none)")
	backoffMin := flag.Duration("backoff-min", 20*time.Millisecond, "initial reconnect/retry backoff")
	backoffMax := flag.Duration("backoff-max", time.Second, "backoff ceiling")
	subLease := flag.Duration("sub-lease", 10*time.Second, "certifier role: how long a replica stays subscribed after its refresh stream drops; replicas keep serving for a quarter of it after losing their stream, and refuse it when their -stream-idle is at least 3/4 of it")
	shards := flag.Int("shards", 1, "certifier/replica/gateway roles: number of certification shards; every role of one deployment must agree")
	shardTables := flag.String("shard-tables", "", "explicit table→shard pins as table=shard[,table=shard...]; unlisted tables hash over [0,shards). Must be identical on every role")
	serveShards := flag.String("serve-shards", "", "replica role: comma-separated shard IDs this replica subscribes to (empty = all); versions certified elsewhere arrive as skip markers")
	replicaShards := flag.String("replica-shards", "", "gateway role: per-replica served shards as idx=shard[+shard...][,idx=...] matching each replica's -serve-shards (replicas absent from the list serve all shards); enables shard-aware routing")
	flag.Parse()
	if *subLease < 0 {
		log.Fatalf("-sub-lease %s: must not be negative", *subLease)
	}

	smap, err := buildShardMap(*shards, *shardTables)
	if err != nil {
		log.Fatal(err)
	}
	ncfg := cluster.NetConfig{
		Timeouts: wire.Timeouts{Call: *callTimeout, Idle: *streamIdle},
		Backoff:  wire.Backoff{Min: *backoffMin, Max: *backoffMax},
		SubLease: *subLease,
	}

	switch *role {
	case "certifier":
		_, _, err = runCertifier(cluster.CertifierConfig{
			Listen:  *listen,
			Shards:  smap,
			Eager:   *eager,
			WALPath: *walPath,
			Net:     ncfg,
		}, *obsAddr)
	case "replica":
		cfg := cluster.ReplicaConfig{
			Replica:         replica.Config{ID: *id, EarlyCert: true},
			Listen:          *listen,
			Certifier:       *certAddr,
			DataDir:         *dataDir,
			CheckpointEvery: *checkpointEvery,
			Shards:          smap,
			MaxLag:          *obsMaxLag,
			Net:             ncfg,
		}
		if *bootstrap != "" {
			cfg.Bootstrap = func(e *storage.Engine) error { return loadBootstrap(e, *bootstrap) }
		}
		if cfg.ServeShards, err = parseShardList(*serveShards, ","); err != nil {
			log.Fatalf("-serve-shards: %v", err)
		}
		_, _, err = runReplica(cfg, *obsAddr)
	case "gateway":
		cfg := cluster.GatewayConfig{Listen: *listen, Shards: smap, Net: ncfg}
		if cfg.Mode, err = core.ParseMode(*modeFlag); err != nil {
			log.Fatal(err)
		}
		if *replicasFlag != "" {
			cfg.Replicas = strings.Split(*replicasFlag, ",")
		}
		if cfg.ReplicaShards, err = parseReplicaShards(*replicaShards); err != nil {
			log.Fatalf("-replica-shards: %v", err)
		}
		_, _, err = runGateway(cfg, *obsAddr)
	case "client":
		runClient(*connect, *session, ncfg)
		return
	default:
		log.Fatalf("unknown -role %q (want certifier, replica, gateway, or client)", *role)
	}
	if err != nil {
		log.Fatal(err)
	}
	select {}
}

// buildShardMap turns the -shards / -shard-tables flags into the
// deployment's shard map; the default is the one-shard map. An entry
// naming a shard outside [0, n) is refused.
func buildShardMap(n int, tablesSpec string) (*shard.Map, error) {
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

// parseShardList parses a list of shard IDs separated by sep; nil for
// "".
func parseShardList(spec, sep string) ([]int, error) {
	if spec == "" {
		return nil, nil
	}
	var out []int
	for _, f := range strings.Split(spec, sep) {
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
		if out[idx], err = parseShardList(shardsStr, "+"); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// node is what the handles of the three server roles share.
type node interface {
	EnableObs(*obs.Registry) obs.Options
	Close() error
}

// serveObs starts n's observability endpoint on addr when one was
// asked for (nil otherwise). A bind error stops the node: a requested
// but unserved endpoint is worse than no endpoint.
func serveObs(n node, role, addr string) (*obs.Server, error) {
	if addr == "" {
		return nil, nil
	}
	srv, err := obs.Serve(addr, n.EnableObs(obs.NewRegistry()))
	if err != nil {
		n.Close()
		return nil, fmt.Errorf("obs: %w", err)
	}
	log.Printf("%s observability on http://%s (/metrics /healthz /traces /debug/pprof)", role, srv.Addr())
	return srv, nil
}

func runCertifier(cfg cluster.CertifierConfig, obsAddr string) (*cluster.CertifierNode, *obs.Server, error) {
	n, err := cluster.StartCertifier(cfg)
	if err != nil {
		return nil, nil, err
	}
	log.Printf("certifier serving on %s (version %d)", n.Addr(), n.Cert.Version())
	srv, err := serveObs(n, "certifier", obsAddr)
	return n, srv, err
}

func runReplica(cfg cluster.ReplicaConfig, obsAddr string) (*cluster.ReplicaNode, *obs.Server, error) {
	if cfg.Certifier == "" {
		return nil, nil, errors.New("replica role requires -certifier")
	}
	n, err := cluster.StartReplica(cfg)
	if err != nil {
		return nil, nil, err
	}
	if st := n.Store(); st != nil {
		stats := st.Stats()
		log.Printf("replica %d recovered to version %d from %s (checkpoint %d, took %s)",
			cfg.Replica.ID, n.Replica.Version(), cfg.DataDir, stats.CheckpointVersion, stats.RecoveryTook)
	}
	log.Printf("replica %d serving on %s (bootstrapped at version %d)", cfg.Replica.ID, n.Addr(), n.Replica.Version())
	srv, err := serveObs(n, "replica", obsAddr)
	return n, srv, err
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

func runGateway(cfg cluster.GatewayConfig, obsAddr string) (*cluster.GatewayNode, *obs.Server, error) {
	if len(cfg.Replicas) == 0 {
		return nil, nil, errors.New("gateway role requires -replicas")
	}
	n, err := cluster.StartGateway(cfg)
	if err != nil {
		return nil, nil, err
	}
	log.Printf("gateway serving on %s, mode %s, %d replicas", n.Addr(), cfg.Mode, len(cfg.Replicas))
	srv, err := serveObs(n, "gateway", obsAddr)
	return n, srv, err
}

func runClient(connect, session string, ncfg cluster.NetConfig) {
	if connect == "" {
		log.Fatal("client role requires -connect")
	}
	c, err := wire.Dial(connect, session, wire.WithTimeouts(ncfg.Timeouts), wire.WithBackoff(ncfg.Backoff))
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

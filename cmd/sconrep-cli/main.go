// Command sconrep-cli is an interactive SQL shell against a replicated
// cluster whose nodes run inside this process, on loopback — a sandbox
// for exploring the system's behaviour by hand.
//
//	sconrep-cli -replicas 3 -mode FSC
//
// Besides SQL, the shell understands:
//
//	\begin [name]   start an explicit transaction (autocommit otherwise)
//	\commit         commit the explicit transaction
//	\abort          abort it
//	\crash N        crash replica N
//	\recover N      recover replica N
//	\versions       show certifier and replica versions
//	\stats          show throughput counters
//	\check          run the strong-consistency checker
//	\help           this list
//	\quit           exit
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"

	"sconrep"
)

func main() {
	// Subcommands ride in front of the interactive shell's flags:
	//
	//	sconrep-cli trace <trace-id> -nodes host:port,...   stitch a distributed trace
	//	sconrep-cli demo [-replicas N]                      end-to-end tracing demo
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "trace":
			runTrace(os.Args[2:])
			return
		case "demo":
			runDemo(os.Args[2:])
			return
		}
	}
	replicas := flag.Int("replicas", 3, "replica count")
	modeFlag := flag.String("mode", "FSC", "consistency mode: ESC, CSC, FSC, SC")
	lan := flag.Bool("lan", false, "simulate LAN latencies")
	flag.Parse()

	mode, err := sconrep.ParseMode(*modeFlag)
	if err != nil {
		log.Fatal(err)
	}
	db, err := sconrep.Open(sconrep.Config{
		Replicas:      *replicas,
		Mode:          mode,
		SimulateLAN:   *lan,
		TimeScale:     0.2,
		RecordHistory: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()
	// Empty deterministic bootstrap; interactive CREATE statements are
	// applied to every replica via ExecSchema below.
	if err := db.Bootstrap(func(b *sconrep.Boot) error { return nil }); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("sconrep shell — %d replicas, %s. \\help for commands.\n", *replicas, mode)
	fmt.Println("note: run CREATE TABLE statements first; they apply to every replica.")

	session := db.Session()
	defer session.Close()
	var open *sconrep.Tx
	openName := ""

	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for {
		if open != nil {
			fmt.Printf("sconrep(%s)*> ", openName)
		} else {
			fmt.Print("sconrep> ")
		}
		if !sc.Scan() {
			return
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "\\") {
			if done := command(db, session, &open, &openName, line); done {
				return
			}
			continue
		}

		// DDL fans out to every replica (not replicated by the commit
		// protocol, mirroring systems that roll schema changes out of
		// band).
		upper := strings.ToUpper(line)
		if strings.HasPrefix(upper, "CREATE ") {
			if err := db.ExecSchema(line); err != nil {
				fmt.Println("error:", err)
			} else {
				fmt.Println("ok")
			}
			continue
		}

		if open != nil {
			printResult(open.Exec(line))
			continue
		}
		// Autocommit.
		tx, err := session.Begin("")
		if err != nil {
			fmt.Println("error:", err)
			continue
		}
		res, err := tx.Exec(line)
		if err != nil {
			tx.Abort()
			fmt.Println("error:", err)
			continue
		}
		if err := tx.Commit(); err != nil {
			fmt.Println("commit error:", err)
			continue
		}
		printResultOK(res)
	}
}

func command(db *sconrep.DB, session *sconrep.SessionHandle, open **sconrep.Tx, openName *string, line string) bool {
	fields := strings.Fields(line)
	switch fields[0] {
	case "\\quit", "\\q":
		return true
	case "\\help":
		fmt.Println(`\begin [name]  \commit  \abort  \crash N  \recover N  \versions  \stats  \check  \quit`)
	case "\\begin":
		if *open != nil {
			fmt.Println("error: transaction already open")
			break
		}
		name := ""
		if len(fields) > 1 {
			name = fields[1]
		}
		tx, err := session.Begin(name)
		if err != nil {
			fmt.Println("error:", err)
			break
		}
		*open, *openName = tx, name
	case "\\commit":
		if *open == nil {
			fmt.Println("error: no open transaction")
			break
		}
		if err := (*open).Commit(); err != nil {
			fmt.Println("commit error:", err)
		} else {
			fmt.Println("committed")
		}
		*open = nil
	case "\\abort":
		if *open == nil {
			fmt.Println("error: no open transaction")
			break
		}
		(*open).Abort()
		*open = nil
		fmt.Println("aborted")
	case "\\crash", "\\recover":
		if len(fields) != 2 {
			fmt.Println("usage:", fields[0], "N")
			break
		}
		n, err := strconv.Atoi(fields[1])
		if err != nil || n < 0 || n >= db.Replicas() {
			fmt.Println("error: bad replica number")
			break
		}
		if fields[0] == "\\crash" {
			db.CrashReplica(n)
			fmt.Printf("replica %d crashed\n", n)
		} else if err := db.RecoverReplica(n); err != nil {
			fmt.Println("error:", err)
		} else {
			fmt.Printf("replica %d recovering\n", n)
		}
	case "\\versions":
		for i := 0; i < db.Replicas(); i++ {
			fmt.Printf("replica %d: Vlocal=%d\n", i, db.ReplicaVersion(i))
		}
	case "\\stats":
		st := db.Stats()
		fmt.Printf("committed=%d (updates=%d reads=%d) aborted=%d tps=%.1f mean=%.2fms\n",
			st.Committed, st.Updates, st.ReadOnly, st.Aborted, st.TPS, st.MeanResponseSeconds*1000)
	case "\\check":
		v, err := db.CheckConsistency()
		if err != nil {
			fmt.Println("error:", err)
			break
		}
		fmt.Printf("strong-consistency violations: %d\n", len(v))
		for i, s := range v {
			if i >= 5 {
				fmt.Println("...")
				break
			}
			fmt.Println(" ", s)
		}
	default:
		fmt.Println("unknown command; \\help lists commands")
	}
	return false
}

func printResult(res *sconrep.Result, err error) {
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	printResultOK(res)
}

func printResultOK(res *sconrep.Result) {
	if res == nil {
		fmt.Println("ok")
		return
	}
	if len(res.Columns) == 0 {
		fmt.Printf("ok (%d rows affected)\n", res.Affected)
		return
	}
	for i, c := range res.Columns {
		if i > 0 {
			fmt.Print(" | ")
		}
		fmt.Print(c)
	}
	fmt.Println()
	for _, row := range res.Rows {
		for i, v := range row {
			if i > 0 {
				fmt.Print(" | ")
			}
			if v == nil {
				fmt.Print("NULL")
			} else {
				fmt.Print(v)
			}
		}
		fmt.Println()
	}
	fmt.Printf("(%d rows)\n", len(res.Rows))
}

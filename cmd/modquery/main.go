// Command modquery is an interactive shell over a moving object
// database: issue the paper's updates (new / terminate / chdir), inspect
// trajectories in constraint syntax, and run distance queries evaluated
// by the plane sweep plus the Example 3 region query evaluated by the
// constraint-language baseline.
//
// Usage:
//
//	modquery [-dim 2] [< script]
//
// Commands (vectors are comma-separated, no spaces):
//
//	new <oid> <tau> <vel> <pos>      e.g. new 1 0 1,0 -5,3
//	terminate <oid> <tau>
//	chdir <oid> <tau> <vel>
//	show <oid>                       constraint-syntax trajectory
//	objects
//	knn <k> <lo> <hi> <qpos>         k nearest to a fixed point
//	within <r> <lo> <hi> <qpos>      objects within distance r
//	entering <lo> <hi> <min> <max>   objects entering a box
//	collide <r> <lo> <hi>            pairs within distance r (exact intervals)
//	save <file> | open <file>        binary snapshot (mod.SaveBinary), any file name
//	help | quit
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"

	moq "repro"
	"repro/internal/cql"
	"repro/internal/geom"
	"repro/internal/mod"
)

var dimFlag = flag.Int("dim", 2, "spatial dimension")

func main() {
	log.SetFlags(0)
	flag.Parse()
	sh := &shell{db: moq.NewDB(*dimFlag, -1e18)}
	sc := bufio.NewScanner(os.Stdin)
	interactive := isTerminalish()
	if interactive {
		fmt.Printf("moving object database (dim %d); 'help' for commands\n", *dimFlag)
	}
	for {
		if interactive {
			fmt.Print("> ")
		}
		if !sc.Scan() {
			return
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if line == "quit" || line == "exit" {
			return
		}
		if err := sh.execute(line); err != nil {
			_, _ = fmt.Fprintf(os.Stderr, "error: %v\n", err)
		}
	}
}

// isTerminalish reports whether stdin looks interactive (char device).
func isTerminalish() bool {
	fi, err := os.Stdin.Stat()
	return err == nil && fi.Mode()&os.ModeCharDevice != 0
}

// shell holds the mutable database reference ("open" swaps it wholesale).
type shell struct {
	db *moq.DB
}

func (sh *shell) execute(line string) error {
	db := sh.db
	fields := strings.Fields(line)
	cmd, args := fields[0], fields[1:]
	switch cmd {
	case "help":
		fmt.Println(`new <oid> <tau> <vel> <pos> | terminate <oid> <tau> | chdir <oid> <tau> <vel>
show <oid> | objects | knn <k> <lo> <hi> <qpos> | within <r> <lo> <hi> <qpos>
entering <lo> <hi> <min> <max> | collide <r> <lo> <hi> | save <file> | open <file> | quit`)
		return nil
	case "save":
		if len(args) != 1 {
			return fmt.Errorf("usage: save <file>")
		}
		f, err := os.Create(args[0])
		if err != nil {
			return err
		}
		if err := db.SaveBinary(f); err != nil {
			_ = f.Close()
			return err
		}
		return f.Close()
	case "open":
		if len(args) != 1 {
			return fmt.Errorf("usage: open <file>")
		}
		f, err := os.Open(args[0])
		if err != nil {
			return err
		}
		loaded, err := mod.LoadBinary(f)
		_ = f.Close()
		if err != nil {
			return err
		}
		if loaded.Dim() != db.Dim() {
			return fmt.Errorf("snapshot dimension %d, shell started with %d (restart with -dim %d)",
				loaded.Dim(), db.Dim(), loaded.Dim())
		}
		sh.db = loaded
		fmt.Printf("loaded %d objects, tau=%g\n", loaded.Len(), loaded.Tau())
		return nil
	case "new":
		if len(args) != 4 {
			return fmt.Errorf("usage: new <oid> <tau> <vel> <pos>")
		}
		o, tau, err := oidTau(args[0], args[1])
		if err != nil {
			return err
		}
		vel, err := vec(args[2])
		if err != nil {
			return err
		}
		pos, err := vec(args[3])
		if err != nil {
			return err
		}
		return db.Apply(moq.New(o, tau, vel, pos))
	case "terminate":
		if len(args) != 2 {
			return fmt.Errorf("usage: terminate <oid> <tau>")
		}
		o, tau, err := oidTau(args[0], args[1])
		if err != nil {
			return err
		}
		return db.Apply(moq.Terminate(o, tau))
	case "chdir":
		if len(args) != 3 {
			return fmt.Errorf("usage: chdir <oid> <tau> <vel>")
		}
		o, tau, err := oidTau(args[0], args[1])
		if err != nil {
			return err
		}
		vel, err := vec(args[2])
		if err != nil {
			return err
		}
		return db.Apply(moq.ChDir(o, tau, vel))
	case "show":
		if len(args) != 1 {
			return fmt.Errorf("usage: show <oid>")
		}
		o, err := oid(args[0])
		if err != nil {
			return err
		}
		tr, err := db.Traj(o)
		if err != nil {
			return err
		}
		fmt.Printf("%s: %s\n", o, tr)
		return nil
	case "objects":
		fmt.Printf("tau=%g objects=%v\n", db.Tau(), db.Objects())
		return nil
	case "knn":
		if len(args) != 4 {
			return fmt.Errorf("usage: knn <k> <lo> <hi> <qpos>")
		}
		k, err := strconv.Atoi(args[0])
		if err != nil {
			return err
		}
		lo, hi, err := window(args[1], args[2])
		if err != nil {
			return err
		}
		q, err := vec(args[3])
		if err != nil {
			return err
		}
		ans, st, err := moq.RunPastKNN(db, moq.PointSq(q), k, lo, hi)
		if err != nil {
			return err
		}
		fmt.Printf("%s  (%d events)\n", ans, st.Events)
		return nil
	case "within":
		if len(args) != 4 {
			return fmt.Errorf("usage: within <r> <lo> <hi> <qpos>")
		}
		r, err := strconv.ParseFloat(args[0], 64)
		if err != nil {
			return err
		}
		lo, hi, err := window(args[1], args[2])
		if err != nil {
			return err
		}
		q, err := vec(args[3])
		if err != nil {
			return err
		}
		ans, _, err := moq.RunPastWithin(db, moq.PointSq(q), r*r, lo, hi)
		if err != nil {
			return err
		}
		fmt.Println(ans)
		return nil
	case "collide":
		if len(args) != 3 {
			return fmt.Errorf("usage: collide <r> <lo> <hi>")
		}
		r, err := strconv.ParseFloat(args[0], 64)
		if err != nil {
			return err
		}
		lo, hi, err := window(args[1], args[2])
		if err != nil {
			return err
		}
		enc, err := moq.DetectEncounters(db, r, lo, hi)
		if err != nil {
			return err
		}
		if len(enc) == 0 {
			fmt.Println("no encounters")
			return nil
		}
		for _, e := range enc {
			fmt.Printf("%s and %s within %g during %v\n", e.A, e.B, r, e.Spans)
		}
		return nil
	case "entering":
		if len(args) != 4 {
			return fmt.Errorf("usage: entering <lo> <hi> <min> <max>")
		}
		lo, hi, err := window(args[0], args[1])
		if err != nil {
			return err
		}
		minV, err := vec(args[2])
		if err != nil {
			return err
		}
		maxV, err := vec(args[3])
		if err != nil {
			return err
		}
		res, err := cql.Entering(db, cql.Box(minV, maxV), lo, hi)
		if err != nil {
			return err
		}
		if len(res) == 0 {
			fmt.Println("no objects entered")
			return nil
		}
		for _, o := range db.Objects() {
			if ts := res[o]; len(ts) > 0 {
				fmt.Printf("%s entered at %v\n", o, ts)
			}
		}
		return nil
	default:
		return fmt.Errorf("unknown command %q (try 'help')", cmd)
	}
}

func oid(s string) (mod.OID, error) {
	// mod.ParseOID accepts the full 64-bit range ("o"-prefixed or
	// bare); the database refuses an OID above mod.MaxOID itself.
	return mod.ParseOID(s)
}

func oidTau(so, st string) (mod.OID, float64, error) {
	o, err := oid(so)
	if err != nil {
		return 0, 0, err
	}
	tau, err := strconv.ParseFloat(st, 64)
	if err != nil {
		return 0, 0, fmt.Errorf("bad time %q", st)
	}
	return o, tau, nil
}

func vec(s string) (geom.Vec, error) {
	parts := strings.Split(s, ",")
	if len(parts) != *dimFlag {
		return nil, fmt.Errorf("vector %q has %d components, database dim is %d", s, len(parts), *dimFlag)
	}
	v := make(geom.Vec, len(parts))
	for i, p := range parts {
		x, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("bad vector component %q", p)
		}
		v[i] = x
	}
	return v, nil
}

func window(slo, shi string) (float64, float64, error) {
	lo, err := strconv.ParseFloat(slo, 64)
	if err != nil {
		return 0, 0, fmt.Errorf("bad time %q", slo)
	}
	hi, err := strconv.ParseFloat(shi, 64)
	if err != nil {
		return 0, 0, fmt.Errorf("bad time %q", shi)
	}
	return lo, hi, nil
}

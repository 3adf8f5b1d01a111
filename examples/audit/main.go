// Audit: a bitemporal data-auditing scenario (the paper's HIPAA-style
// motivation). Patient records carry application time (when a fact was
// true in the world) alongside the system time Aion assigns at commit.
// An auditor can then answer: "what did the database say on day X about
// the period [Y, Z]?" — and repair bad data without losing the evidence.
//
// Run with: go run ./examples/audit
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"aion/internal/cypher"
	"aion/internal/model"
	"aion/internal/system"
)

func main() {
	ctx := context.Background()
	dir, err := os.MkdirTemp("", "aion-audit-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	sys, err := system.Open(system.Options{Dir: dir})
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()
	engine := cypher.NewEngine(sys)
	must := func(q string, params map[string]model.Value) *cypher.Result {
		res, err := engine.QueryContext(ctx, q, params)
		if err != nil {
			log.Fatalf("%s: %v", q, err)
		}
		return res
	}

	// Commit 1: a diagnosis valid (application time) during days 100-200.
	must(`CREATE (p:Patient {name: 'p1'})`, nil)
	must(`CREATE (d:Diagnosis {code: 'A01', __app_start: 100, __app_end: 200})`, nil)
	// Commit 3: a second diagnosis for days 300-400.
	must(`CREATE (d:Diagnosis {code: 'B02', __app_start: 300, __app_end: 400})`, nil)
	// Commit 4: data-entry error fixed — the A01 code is corrected.
	must(`MATCH (d:Diagnosis {code: 'A01'}) SET d.code = 'A01-corrected'`, nil)
	if err := sys.Aion.WaitSync(); err != nil {
		log.Fatal(err)
	}

	// Audit question 1 (bitemporal, Fig 1c): as the database stood at
	// system time 3, which diagnoses were valid during days 50-250?
	res := must(`USE GDB FOR SYSTEM_TIME AS OF 3
	             MATCH (d:Diagnosis)
	             WHERE APPLICATION_TIME CONTAINED IN (50, 250)
	             RETURN d.code`, nil)
	fmt.Println("diagnoses for days 50-250, as recorded at commit 3:")
	for _, row := range res.Rows {
		fmt.Println("  ", row[0])
	}

	// Audit question 2: what did we believe before the correction?
	res = must(`USE GDB FOR SYSTEM_TIME AS OF 3 MATCH (d:Diagnosis) WHERE id(d) = 1 RETURN d.code`, nil)
	fmt.Println("record 1 before correction:", res.Rows[0][0])
	res = must(`MATCH (d:Diagnosis) WHERE id(d) = 1 RETURN d.code`, nil)
	fmt.Println("record 1 after correction: ", res.Rows[0][0])

	// Audit question 3: the full change history of the corrected record,
	// via the LineageStore (one row per version with validity interval).
	versions, err := sys.Aion.GetNodeContext(ctx, 1, 0, model.TSInfinity)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("version chain of record 1:")
	for _, v := range versions {
		end := "inf"
		if v.Valid.End != model.TSInfinity {
			end = fmt.Sprint(v.Valid.End)
		}
		fmt.Printf("  [%d, %s): code=%v\n", v.Valid.Start, end, v.Props["code"])
	}

	// Data repair: restore the state of the whole graph as of commit 2
	// into a fresh in-memory snapshot (the "restore data to a previous
	// version" use case).
	snapshot, err := sys.Aion.GraphAtContext(ctx, 2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("restore point at commit 2: %d nodes\n", snapshot.NodeCount())
}

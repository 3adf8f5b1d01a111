// Window: graph-window analytics (Sec 4.1's getWindow motivation —
// "extract trends with time locality while pruning inactive entities, e.g.
// e-commerce transactions of a specific week to capture Black Friday
// sales"). A purchase graph streams in over four "weeks"; the example then
// pulls one graph window per week and compares activity against the full
// accumulated graph.
//
// Run with: go run ./examples/window
package main

import (
	"context"
	"fmt"
	"log"

	"aion/internal/aion"
	"aion/internal/model"
)

func main() {
	ctx := context.Background()
	db, err := aion.Open(aion.Options{SnapshotEveryOps: 500})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	// Nodes: 20 customers (ids 0..19) and 10 products (ids 100..109).
	// Purchases are relationships created at their transaction time;
	// carts are abandoned (deleted) now and then. Week w spans
	// timestamps [1000w, 1000(w+1)).
	ts := model.Timestamp(1)
	var us []model.Update
	for c := 0; c < 20; c++ {
		us = append(us, model.AddNode(ts, model.NodeID(c), []string{"Customer"}, nil))
		ts++
	}
	for p := 0; p < 10; p++ {
		us = append(us, model.AddNode(ts, model.NodeID(100+p), []string{"Product"}, nil))
		ts++
	}
	rid := model.RelID(0)
	purchase := func(week, customer, product, amount int) {
		t := model.Timestamp(1000*week + 10*int(rid)%990 + 5)
		us = append(us, model.AddRel(t, rid, model.NodeID(customer), model.NodeID(100+product),
			"BOUGHT", model.Properties{"amount": model.IntValue(int64(amount))}))
		rid++
	}
	// Weeks 1-2: light traffic; week 3 is "Black Friday"; week 4 quiet.
	for i := 0; i < 8; i++ {
		purchase(1, i%20, i%10, 10+i)
	}
	for i := 0; i < 10; i++ {
		purchase(2, (i*3)%20, (i*7)%10, 15+i)
	}
	for i := 0; i < 40; i++ {
		purchase(3, (i*5)%20, (i*3)%10, 50+i) // the spike
	}
	for i := 0; i < 5; i++ {
		purchase(4, i, i, 12)
	}
	// Sort by timestamp (monotone commit order) and load.
	for i := 1; i < len(us); i++ {
		for j := i; j > 0 && us[j].TS < us[j-1].TS; j-- {
			us[j], us[j-1] = us[j-1], us[j]
		}
	}
	if err := db.ApplyBatch(us); err != nil {
		log.Fatal(err)
	}
	if err := db.WaitSync(); err != nil {
		log.Fatal(err)
	}

	fmt.Println("week  purchases-in-window  revenue   cumulative-purchases")
	for week := 1; week <= 4; week++ {
		start := model.Timestamp(1000 * week)
		end := model.Timestamp(1000 * (week + 1))
		// The window prunes everything not active in [start, end) while
		// keeping it a consistent graph.
		win, err := db.GetWindowContext(ctx, start, end)
		if err != nil {
			log.Fatal(err)
		}
		revenue := int64(0)
		purchases := 0
		win.ForEachRel(func(r *model.Rel) bool {
			if r.Valid.Start >= start { // created inside the window
				purchases++
				revenue += r.Props["amount"].Int()
			}
			return true
		})
		// Contrast: the full graph up to the window end keeps growing.
		full, err := db.GraphAtContext(ctx, end-1)
		if err != nil {
			log.Fatal(err)
		}
		marker := ""
		if purchases >= 20 {
			marker = "  <= Black Friday"
		}
		fmt.Printf("%-5d %-20d %-9d %d%s\n", week, purchases, revenue, full.RelCount(), marker)
	}

	// Who drove the spike? Expand the busiest product's window
	// neighbourhood.
	win, _ := db.GetWindowContext(ctx, 3000, 4000)
	best, bestDeg := model.NodeID(-1), 0
	win.ForEachNode(func(n *model.Node) bool {
		if n.HasLabel("Product") {
			if d := win.Degree(n.ID, model.Incoming); d > bestDeg {
				best, bestDeg = n.ID, d
			}
		}
		return true
	})
	fmt.Printf("\nhottest product in week 3: n%d with %d purchases\n", best, bestDeg)
}

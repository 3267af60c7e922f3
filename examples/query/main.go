// Query example: the Hive/Pig scenario from the paper's introduction — a
// analytics query decomposed into a chain of short MapReduce jobs, each
// submitted through the MRapid framework with speculative dual-mode
// execution and history reuse.
//
//	go run ./examples/query
package main

import (
	"fmt"
	"log"
	"math/rand"
	"strconv"

	"mrapid/internal/bench"
	"mrapid/internal/query"
)

func main() {
	// Cluster + framework: the D+ scheduler and a started AM pool.
	setup := bench.A3x4()
	setup.Seed = 21
	env, err := bench.NewEnv(setup, bench.VariantDPlus())
	if err != nil {
		log.Fatal(err)
	}
	eng := env.Eng

	// Warehouse tables: ~40k sales rows and a small dimension table.
	cat := query.NewCatalog(env.DFS, env.Cluster)
	rng := rand.New(rand.NewSource(77))
	regions := []string{"east", "west", "north", "south"}
	var sales []query.Row
	for i := 0; i < 40_000; i++ {
		sales = append(sales, query.Row{
			strconv.Itoa(i),
			regions[rng.Intn(len(regions))],
			strconv.Itoa(50 + rng.Intn(950)),
			fmt.Sprintf("cust-%03d", rng.Intn(400)),
		})
	}
	if _, err := cat.Create("sales", query.Schema{"id", "region", "amount", "customer"}, sales, 4); err != nil {
		log.Fatal(err)
	}
	if _, err := cat.Create("regions", query.Schema{"name", "manager"}, []query.Row{
		{"east", "amy"}, {"west", "bob"}, {"north", "carol"}, {"south", "dan"},
	}, 1); err != nil {
		log.Fatal(err)
	}

	// Stage by stage, the way a Hive/Pig frontend chains its jobs. (This plan
	// is a straight line, so there are no branches to overlap anyway.)
	runner, err := query.NewDAGRunner(env.FW, nil, cat)
	if err != nil {
		log.Fatal(err)
	}
	runner.Sequential = true

	// The query, in SQL:
	//   SELECT r.manager, SUM(s.amount), COUNT(*)
	//   FROM sales s JOIN regions r ON s.region = r.name
	//   WHERE s.amount >= 500
	//   GROUP BY r.manager
	//   ORDER BY SUM(s.amount) DESC
	plan := query.Scan("sales").
		Filter(query.Where("amount", query.OpGe, "500")).
		Join(query.Scan("regions"), "region", "name").
		GroupBy([]string{"manager"}, query.Sum("amount"), query.Count()).
		OrderBy("sum(amount)", true)

	fmt.Println("logical plan:", plan)
	exec := func(label string) *query.Result {
		var res *query.Result
		var errOut error
		eng.After(0, func() {
			runner.Run(plan, func(r *query.Result, err error) { res, errOut = r, err })
		})
		eng.RunUntil(eng.Now().Add(1 << 42))
		if errOut != nil {
			log.Fatalf("%s: %v", label, errOut)
		}
		fmt.Printf("%s: %d MapReduce stages, %.2f virtual seconds, stage winners %v\n",
			label, res.Stages, res.Elapsed, res.Winners)
		return res
	}

	res := exec("first run (speculative)")
	fmt.Println("manager      sum(amount)  count(*)")
	for _, r := range res.Rows {
		fmt.Printf("%-12s %-12s %s\n", r[0], r[1], r[2])
	}

	// Hive-style frontends fire the same shapes of stage over and over;
	// the second run of every stage kind is answered from the execution
	// history without speculation.
	res2 := exec("second run (history)")
	fmt.Printf("raced: %.2fs; pre-decided from history, with no second attempt holding an AM: %.2fs\n", res.Elapsed, res2.Elapsed)
}

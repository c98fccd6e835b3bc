// Webquery applies conditional planning to the wide-area/web scenario of
// Section 7: a meta-search service screens flight offers with predicates
// over attributes that must be fetched from slow remote services (live
// price, seats left), while cheap attributes (route, season, carrier tier,
// cached base fare) are available locally. Remote latencies play the role
// of acquisition costs.
//
// The conditional plan learns, e.g., that off-season budget-carrier
// offers rarely clear the seat-availability bar, so for those it probes
// the cheap-to-check predicate first and skips the expensive price fetch.
//
// Run: go run ./examples/webquery
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"acqp"
)

func main() {
	// Costs are mean fetch latencies in milliseconds.
	s := acqp.NewSchema(
		acqp.Attribute{Name: "route", K: 8, Cost: 0},     // local
		acqp.Attribute{Name: "season", K: 4, Cost: 0},    // local
		acqp.Attribute{Name: "tier", K: 3, Cost: 0},      // carrier tier, local
		acqp.Attribute{Name: "basefare", K: 16, Cost: 1}, // cached, ~1ms
		acqp.Attribute{Name: "price", K: 16, Cost: 900},  // live quote, ~900ms
		acqp.Attribute{Name: "seats", K: 8, Cost: 400},   // availability svc, ~400ms
	)

	history := simulateOffers(s, 60_000, 11)
	train, live := history.Split(0.5)

	// Screen: live price in the low half AND at least 2 seats.
	q, err := acqp.NewQuery(s,
		acqp.Pred{Attr: s.MustIndex("price"), R: acqp.Range{Lo: 0, Hi: 7}},
		acqp.Pred{Attr: s.MustIndex("seats"), R: acqp.Range{Lo: 2, Hi: 7}},
	)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("screening query: %s\n", q.Format(s))
	fmt.Printf("history: %d offers, live stream: %d offers\n\n", train.NumRows(), live.NumRows())

	d := acqp.NewEmpirical(train)
	cond, _, err := acqp.Optimize(context.Background(), d, q, acqp.Options{MaxSplits: 8})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("conditional plan:\n%s\n", acqp.Render(cond, s))

	naive, _ := acqp.NaivePlan(d, q)
	nRes, err := acqp.Execute(context.Background(), s, naive, q, live, acqp.ExecOptions{})
	if err != nil {
		log.Fatal(err)
	}
	cRes, err := acqp.Execute(context.Background(), s, cond, q, live, acqp.ExecOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("mean screening latency: naive %.0f ms, conditional %.0f ms (%.0f%% faster)\n",
		nRes.MeanCost(), cRes.MeanCost(), (1-cRes.MeanCost()/nRes.MeanCost())*100)

	// Existential query (Section 7): "is there any qualifying offer?"
	eRes, err := acqp.Execute(context.Background(), s, cond, acqp.Query{}, live,
		acqp.ExecOptions{Exists: true, SkipVerify: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("first qualifying offer: found=%v at offer %d after %.0f ms of fetches\n",
		eRes.Found, eRes.FoundRow, eRes.TotalCost)
}

// simulateOffers generates correlated offer data with complementary
// failure regimes — the structure conditional plans exploit. Premium
// carriers (high tier) are expensive (the price screen usually fails) but
// keep seats available; budget carriers are cheap but oversold (the seat
// screen usually fails). Season and route demand shift both. A fixed
// probe order is wrong for one of the two regimes; the conditional plan
// picks per offer.
func simulateOffers(s *acqp.Schema, n int, seed int64) *acqp.Table {
	rng := rand.New(rand.NewSource(seed))
	tbl := acqp.NewTable(s, n)
	for i := 0; i < n; i++ {
		route := rng.Intn(8)
		season := rng.Intn(4)
		tier := rng.Intn(3)
		demand := float64(route%4)/6 + float64(season)/6 // 0..1

		// Price grows with carrier tier (strongly) and demand (mildly).
		price := float64(tier)*5.5 + demand*3 + rng.NormFloat64()*1.5
		price = clamp(price, 0, 15)
		base := clamp(price+rng.NormFloat64()*1.2, 0, 15) // cached base fare tracks price

		// Seats shrink on budget carriers (oversold) and with demand.
		seats := 1.5 + float64(tier)*2.5 - demand*1.5 + rng.NormFloat64()*1.0
		seats = clamp(seats, 0, 7)

		tbl.MustAppendRow([]acqp.Value{
			acqp.Value(route), acqp.Value(season), acqp.Value(tier),
			acqp.Value(int(base)), acqp.Value(int(price)), acqp.Value(int(seats)),
		})
	}
	return tbl
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

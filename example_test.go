package rfidclean_test

import (
	"fmt"
	"log"

	rfidclean "repro"
)

// buildDemo assembles the two-room deployment used by the runnable examples.
func buildDemo() (*rfidclean.System, *rfidclean.ConstraintSet) {
	b := rfidclean.NewMapBuilder()
	cor := b.AddLocation("corridor", rfidclean.Corridor, 0, rfidclean.RectWH(0, 0, 12, 3))
	lab := b.AddLocation("lab", rfidclean.Room, 0, rfidclean.RectWH(0, 3, 6, 5))
	office := b.AddLocation("office", rfidclean.Room, 0, rfidclean.RectWH(6, 3, 6, 5))
	b.AddDoor(cor, lab, rfidclean.Pt(3, 3), 1)
	b.AddDoor(cor, office, rfidclean.Pt(9, 3), 1)
	plan, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}
	readers := []rfidclean.Reader{
		{ID: 0, Name: "r-lab", Floor: 0, Pos: rfidclean.Pt(3, 5.5)},
		{ID: 1, Name: "r-office", Floor: 0, Pos: rfidclean.Pt(9, 5.5)},
		{ID: 2, Name: "r-cor", Floor: 0, Pos: rfidclean.Pt(6, 1.5)},
	}
	sys, err := rfidclean.NewSystem(plan, readers, rfidclean.DefaultThreeState(), 0.5)
	if err != nil {
		log.Fatal(err)
	}
	sys.CalibratePrior(30, rfidclean.NewRNG(1))
	ic, err := sys.InferConstraints(2, 5, 0)
	if err != nil {
		log.Fatal(err)
	}
	return sys, ic
}

// ExampleSystem_Clean cleans a short synthetic reading log and asks where
// the object most probably was.
func ExampleSystem_Clean() {
	sys, ic := buildDemo()
	rng := rfidclean.NewRNG(42)
	truth, err := rfidclean.GenerateTrajectory(sys.Plan, rfidclean.NewGeneratorConfig(60), rng)
	if err != nil {
		log.Fatal(err)
	}
	readings := rfidclean.GenerateReadings(truth, sys.Truth, rng)

	cleaned, err := sys.Clean(readings, ic, &rfidclean.BuildOptions{EndLatency: rfidclean.LenientEnd})
	if err != nil {
		log.Fatal(err)
	}
	loc, _, err := cleaned.MostLikelyAt(30)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(loc.Name == sys.Plan.Location(truth.Points[30].Loc).Name)
	// Output: true
}

// ExampleBuildCTGraph runs Algorithm 1 on the paper's running-example
// l-sequence shape: conditioning removes invalid trajectories and
// renormalizes the rest.
func ExampleBuildCTGraph() {
	// Two timestamps, two candidate locations each; location 1 cannot
	// follow location 0.
	ls := &rfidclean.LSequence{Steps: []rfidclean.LStep{
		{Candidates: []rfidclean.LCandidate{{Loc: 0, P: 0.5}, {Loc: 1, P: 0.5}}},
		{Candidates: []rfidclean.LCandidate{{Loc: 0, P: 0.5}, {Loc: 1, P: 0.5}}},
	}}
	ic := rfidclean.NewConstraintSet()
	ic.AddDU(0, 1)

	g, err := rfidclean.BuildCTGraph(ls, ic, nil)
	if err != nil {
		log.Fatal(err)
	}
	locs, p := g.MostProbable()
	fmt.Printf("%d trajectories remain; best %v with p=%.3f\n", countPaths(g), locs, p)
	// Output: 3 trajectories remain; best [0 0] with p=0.333
}

func countPaths(g *rfidclean.CTGraph) int {
	n := 0
	if err := g.WalkPaths(1000, func([]int, float64) { n++ }); err != nil {
		log.Fatal(err)
	}
	return n
}

// ExampleParsePattern shows the paper's trajectory-pattern syntax.
func ExampleParsePattern() {
	resolve := func(name string) (int, error) {
		ids := map[string]int{"lobby": 0, "lab": 1}
		id, ok := ids[name]
		if !ok {
			return 0, fmt.Errorf("unknown %q", name)
		}
		return id, nil
	}
	p, err := rfidclean.ParsePattern("? lab[3] ? lobby ?", resolve)
	if err != nil {
		log.Fatal(err)
	}
	ok, err := rfidclean.MatchesPattern(p, []int{0, 1, 1, 1, 0, 0})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(ok)
	// Output: true
}

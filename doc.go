// Package rfidclean is a probabilistic cleaning framework for the
// trajectories of RFID-monitored objects, reproducing "Cleaning trajectory
// data of RFID-monitored objects through conditioning under integrity
// constraints" (Fazzinga, Flesca, Furfaro, Parisi — EDBT 2014).
//
// RFID readings — (timestamp, set-of-detecting-readers) pairs — are an
// ambiguous record of where an object was: readers overlap, locations share
// readers, and readers miss tags. The framework interprets the readings
// through an a-priori distribution p*(l|R) learned on a grid partitioning of
// the map, then *conditions* the resulting probabilistic trajectories on the
// event that integrity constraints hold:
//
//   - direct unreachability (DU): rooms not sharing a door cannot be
//     consecutive;
//   - traveling time (TT): distant locations need at least ν seconds of
//     travel;
//   - latency (LT): a visit to a location lasts at least δ seconds.
//
// The result is a conditioned trajectory graph (ct-graph): a compact DAG
// whose source-to-target paths are exactly the valid trajectories and whose
// path probabilities are the conditioned probabilities. Stay queries
// ("where was the object at τ?"), trajectory-pattern queries ("did it visit
// L1 for 3s and later L2?"), most-probable-trajectory extraction and
// weighted sampling all run directly on the graph.
//
// # Quickstart
//
//	plan := ...                       // build a map with NewMapBuilder
//	sys, _ := rfidclean.NewSystem(plan, readers, rfidclean.DefaultThreeState(), 0.5)
//	sys.CalibratePrior(30, rfidclean.NewRNG(1))        // learn p*(l|R)
//	ic, _ := sys.InferConstraints(2.0, 5, 0)           // DU+LT+TT from the map
//	cleaned, _ := sys.Clean(readings, ic, nil)
//	dist, _ := cleaned.StayDistribution(42)            // where at τ=42?
//	locs, p := cleaned.MostProbable()                  // best explanation
//
// NewSystem takes the three-state antenna model (ThreeState) and evaluates
// it only at the cells each reader can reach; every other detection rate is
// 0. The DetectionMatrix keeps each reader's row as the span from its first
// to its last non-zero cell: read an entry with Rate(r, c) and a row with
// Row(r). A BuildState streaming readings gives its pooled memory back with
// Release once the stream ends. See examples/ for complete programs and
// DESIGN.md for the paper-to-code map.
package rfidclean

package main

import (
	"encoding/json"
	"fmt"
	"time"
)

// A shared host drifts: over minutes the same work takes up to a quarter
// longer, on every workload alike. The speedometer is a fixed lap of work
// that touches nothing of the repository — iterating a tree of small maps,
// encoding and decoding a few rows as JSON — timed beside every repetition,
// so that a repetition's wall time can also be stated at a reference
// machine speed: run_cal_s = wall * lapReference / (lap before + lap after)/2.
// A change to the repository cannot move the lap; a slow minute of the host
// moves lap and repetition together.
type speedometer struct {
	tree []map[string]map[string]uint64
	rows []speedRow
	sink int
}

type speedRow struct {
	ID     string            `json:"id"`
	Fields map[string]string `json:"fields"`
	VV     map[string]uint64 `json:"vv"`
}

// lapReference is the lap on the machine the benchmark was built on, at its
// usual speed; it only fixes the scale, so that run_cal_s reads like
// run_wall_s.
const lapReference = 250 * time.Millisecond

func newSpeedometer() *speedometer {
	s := &speedometer{tree: make([]map[string]map[string]uint64, 4096), rows: make([]speedRow, 16)}
	for i := range s.tree {
		s.tree[i] = make(map[string]map[string]uint64)
	}
	for i := 0; i < 20000; i++ {
		s.tree[i%len(s.tree)][fmt.Sprintf("obj%06d", i)] = map[string]uint64{"s000": uint64(i % 7), "s001": 2}
	}
	for i := range s.rows {
		s.rows[i] = speedRow{
			ID:     fmt.Sprintf("obj%06d", i),
			Fields: map[string]string{"title": "seed", "body": "shared working material", "author": "u00001", "context": "act0001"},
			VV:     map[string]uint64{"s000": 1},
		}
	}
	s.lap() // first touch: page in the tree, warm the JSON type cache
	return s
}

// lap runs the fixed work once and returns how long it took.
func (s *speedometer) lap() time.Duration {
	t0 := time.Now()
	for round := 0; round < 55; round++ {
		for _, bucket := range s.tree {
			for _, vv := range bucket {
				for _, c := range vv {
					if c > 3 {
						s.sink++
					}
				}
			}
		}
		for i := 0; i < 40; i++ {
			blob, err := json.Marshal(s.rows)
			var back []speedRow
			if err == nil {
				err = json.Unmarshal(blob, &back)
			}
			if err != nil {
				panic(err) // fixed input: cannot fail
			}
			s.sink += len(back)
		}
	}
	return time.Since(t0)
}

// calibrated restates a wall time at the reference machine speed, given the
// laps run just before and just after it.
func calibrated(wall, before, after time.Duration) float64 {
	return wall.Seconds() * float64(lapReference) / (float64(before+after) / 2)
}

package topology

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

func TestReadJSONRejectsGarbage(t *testing.T) {
	cases := map[string]string{
		"not json":        `{{{`,
		"unknown field":   `{"name":"x","bogus":1}`,
		"bad node ids":    `{"name":"x","nodes":[{"ID":7}]}`,
		"bad link":        `{"name":"x","nodes":[{"ID":0},{"ID":1}],"links":[{"ID":0,"A":0,"B":0,"CapMbps":5}]}`,
		"zero capacity":   `{"name":"x","nodes":[{"ID":0},{"ID":1}],"links":[{"ID":0,"A":0,"B":1}]}`,
		"bs wrong kind":   `{"name":"x","nodes":[{"ID":0,"Kind":0}],"base_stations":[{"Node":0,"CapMHz":20,"Eta":0.13}]}`,
		"cu out of range": `{"name":"x","nodes":[{"ID":0,"Kind":2}],"computing_units":[{"Node":5,"CPUCores":4}]}`,
		"cu on a bs node": `{"name":"x","nodes":[{"ID":0,"Kind":1}],"computing_units":[{"Node":0,"CPUCores":4}]}`,
		"cu zero pool":    `{"name":"x","nodes":[{"ID":0,"Kind":2}],"computing_units":[{"Node":0,"CPUCores":0}]}`,
	}
	for name, doc := range cases {
		if _, err := ReadJSON(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: accepted invalid document", name)
		}
	}
}

func TestReadJSONMinimalValid(t *testing.T) {
	doc := `{
	  "name": "mini",
	  "nodes": [{"ID":0,"Kind":1}, {"ID":1,"Kind":0}, {"ID":2,"Kind":2}],
	  "links": [{"ID":0,"A":0,"B":1,"CapMbps":1000}, {"ID":1,"A":1,"B":2,"CapMbps":1000}],
	  "base_stations": [{"Node":0,"CapMHz":20,"Eta":0.1333}],
	  "computing_units": [{"Node":2,"CPUCores":8,"Edge":true}]
	}`
	n, err := ReadJSON(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(n.Paths(2)[0][0]); got != 1 {
		t.Errorf("expected 1 path through the minimal network, got %d", got)
	}
}

// TestJSONRoundTrip pins that every built-in topology survives
// WriteJSON/ReadJSON unchanged — elements and the path sets solvers
// enumerate from them. Metro is the case that needs CUs on switch nodes.
func TestJSONRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name string
		net  *Network
		// bsStep samples every bsStep-th BS for the path comparison: the
		// full metro fabric has 1056 BSs × 176 CUs, too many pairs to run
		// Yen's algorithm on in a unit test.
		bsStep int
	}{
		{"testbed", Testbed(), 1},
		{"romanian", Romanian(20), 1},
		{"swiss", Swiss(20), 1},
		{"italian", Italian(20), 1},
		{"metro-pod", Metro(MetroPodBS), 1},
		{"metro-full", Metro(0), MetroBSCount - 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := tc.net.WriteJSON(&buf); err != nil {
				t.Fatal(err)
			}
			back, err := ReadJSON(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if back.Name != tc.net.Name ||
				!reflect.DeepEqual(back.Nodes, tc.net.Nodes) ||
				!reflect.DeepEqual(back.Links, tc.net.Links) ||
				!reflect.DeepEqual(back.BSs, tc.net.BSs) ||
				!reflect.DeepEqual(back.CUs, tc.net.CUs) {
				t.Fatal("round trip changed the network's elements")
			}
			if tc.bsStep == 1 {
				if !reflect.DeepEqual(back.Paths(3), tc.net.Paths(3)) {
					t.Fatal("round trip changed the path sets")
				}
				return
			}
			for b := 0; b < tc.net.NumBS(); b += tc.bsStep {
				for c := range tc.net.CUs {
					want := tc.net.kShortest(tc.net.BSs[b].Node, tc.net.CUs[c].Node, 3)
					got := back.kShortest(back.BSs[b].Node, back.CUs[c].Node, 3)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("round trip changed the paths from BS %d to CU %d", b, c)
					}
				}
			}
		})
	}
}

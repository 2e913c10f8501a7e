package main

import (
	"fmt"
	"math/rand"
)

// Workload shapes.
const (
	docSize      = 256 << 10
	smallMin     = 200
	smallMax     = 4 << 10
	smallPool    = 512
	invalidShare = 0.05
)

var workloadNames = []string{"doc-json", "doc-xml", "small-mixed"}

var allGrammars = []string{"JSON", "XML", "DOT", "Cool", "MiniC"}

// workload is a pool of documents, each sent whole in one request, with
// the simulator's answer for each (wants[i] for docs[i]).
type workload struct {
	name     string
	grammars []string
	docs     []doc
	wants    []expected
	params   map[string]any
}

// buildWorkload generates a workload's documents from seed and computes
// every expected answer with the simulator.
func buildWorkload(name string, seed int64) (*workload, error) {
	r := workloadRand(name, seed)
	w := &workload{name: name}
	switch name {
	case "doc-json":
		// Two documents for every nesting limit 1–7 under every value-mix
		// profile.
		w.grammars = []string{"JSON"}
		for i := 0; i < 2*7*len(jsonProfiles); i++ {
			data := genJSON(r, docSize, 1+i%7, jsonProfiles[i/7%len(jsonProfiles)])
			w.docs = append(w.docs, doc{grammar: "JSON", data: data, valid: true, kind: "json"})
		}
	case "doc-xml":
		// One document per corpus spec, in a seeded order.
		w.grammars = []string{"XML"}
		for _, i := range r.Perm(len(xmlSpecs)) {
			w.docs = append(w.docs, genXML(r, i, docSize))
		}
	case "small-mixed":
		w.grammars = allGrammars
	default:
		return nil, fmt.Errorf("unknown workload %q (valid: %v)", name, workloadNames)
	}
	o, err := newOracle(w.grammars)
	if err != nil {
		return nil, err
	}
	if name == "small-mixed" {
		if err := w.smallDocs(r, o); err != nil {
			return nil, err
		}
	}
	for i, d := range w.docs {
		want, err := o.whole(d.grammar, d.data)
		if err != nil {
			return nil, err
		}
		if d.valid && !want.Accepted {
			return nil, fmt.Errorf("generated %s document %d (%s) is rejected by the simulator: %s", d.grammar, i, d.kind, want.Error)
		}
		w.wants = append(w.wants, want)
	}
	w.params = map[string]any{
		"grammars": w.grammars, "documents": len(w.docs), "docBytes": totalBytes(w.docs),
		"loop": "closed",
	}
	if name == "small-mixed" {
		w.params["invalidShare"] = invalidShare
	}
	return w, nil
}

// smallDocs fills the small-mixed pool: 200 B–4 KiB documents spread over
// all five grammars, a seeded ~5% of them mutated until the simulator
// rejects them.
func (w *workload) smallDocs(r *rand.Rand, o *oracle) error {
	for i := 0; i < smallPool; i++ {
		d := genSmall(r, w.grammars[r.Intn(len(w.grammars))])
		if r.Float64() < invalidShare {
			m, err := invalidMutation(r, o, d)
			if err != nil {
				return err
			}
			d = m
		}
		w.docs = append(w.docs, d)
	}
	return nil
}

// invalidMutation damages d until the reference no longer accepts it.
func invalidMutation(r *rand.Rand, o *oracle, d doc) (doc, error) {
	for try := 0; try < 64; try++ {
		data := mutate(r, d.data)
		want, err := o.whole(d.grammar, data)
		if err != nil {
			continue // e.g. a stack overflow: not an answer this workload sends
		}
		if !want.Accepted {
			return doc{grammar: d.grammar, data: data, kind: "mutated"}, nil
		}
	}
	return doc{}, fmt.Errorf("could not make an invalid %s document", d.grammar)
}

func totalBytes(docs []doc) int {
	n := 0
	for _, d := range docs {
		n += len(d.data)
	}
	return n
}

package main

import (
	"errors"
	"fmt"
	"math"

	"repro/tasti"
)

// response is the union of the JSON bodies tastiserve answers on the
// /query/* and /ingest routes. Pointer fields tell a missing key from a
// zero value where a check needs to.
type response struct {
	// /query/aggregate
	Estimate  *float64 `json:"estimate"`
	HalfWidth float64  `json:"half_width"`
	// /query/select
	Returned  int     `json:"returned"`
	Threshold float64 `json:"threshold"`
	SampleIDs []int   `json:"sample_ids"`
	// /query/limit
	Found     []int `json:"found"`
	Exhausted bool  `json:"exhausted"`
	Cracked   int   `json:"cracked"`
	// every query route
	LabelCalls int64 `json:"label_calls"`
	Degraded   bool  `json:"degraded"`
	// /ingest
	Base  *int `json:"base"`
	Count int  `json:"count"`
}

// truthFunc returns the ground-truth annotation of a record ID, and false
// for an ID no acknowledged record carries.
type truthFunc func(id int) (tasti.Annotation, bool)

// checkAggregate: the estimate is finite and, unless the answer is marked
// degraded, its confidence half-width meets the requested error target.
func checkAggregate(req request, r response) error {
	if r.Estimate == nil || math.IsNaN(*r.Estimate) || math.IsInf(*r.Estimate, 0) {
		return errors.New("aggregate: estimate missing or not finite")
	}
	if !r.Degraded && r.HalfWidth > req.Err {
		return fmt.Errorf("aggregate: half_width %v exceeds err %v", r.HalfWidth, req.Err)
	}
	return nil
}

// checkSelect: the returned sample is unique, ascending and within the
// corpus, and no larger than the returned count. The sample may hold
// unverified records above the threshold, so it is not checked against the
// predicate.
func checkSelect(r response, records int) error {
	if r.Returned < len(r.SampleIDs) {
		return fmt.Errorf("select: returned %d < %d sample ids", r.Returned, len(r.SampleIDs))
	}
	for i, id := range r.SampleIDs {
		if id < 0 || id >= records {
			return fmt.Errorf("select: sample id %d outside [0,%d)", id, records)
		}
		if i > 0 && id <= r.SampleIDs[i-1] {
			return fmt.Errorf("select: sample ids not unique and ascending at %d", i)
		}
	}
	return nil
}

// checkLimit: at most k records are found, and each truly satisfies the
// query predicate.
func checkLimit(req request, r response, truth truthFunc) error {
	if len(r.Found) > req.K {
		return fmt.Errorf("limit: found %d records, k is %d", len(r.Found), req.K)
	}
	pred := req.predicate()
	for _, id := range r.Found {
		ann, ok := truth(id)
		if !ok {
			return fmt.Errorf("limit: found id %d is not a known record", id)
		}
		if !pred(ann) {
			return fmt.Errorf("limit: found id %d does not satisfy %s >= %d", id, req.Class, req.Count)
		}
	}
	return nil
}

// checkIngest: the acknowledged IDs start where the previous batch ended
// (the corpus size for the first) and cover the whole batch.
func checkIngest(r response, wantBase, records int) error {
	if r.Base == nil {
		return errors.New("ingest: base missing")
	}
	if *r.Base != wantBase {
		return fmt.Errorf("ingest: base %d, want %d", *r.Base, wantBase)
	}
	if r.Count != records {
		return fmt.Errorf("ingest: count %d, want %d", r.Count, records)
	}
	return nil
}

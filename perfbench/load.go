package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/tasti"
)

// exchange is one request a client sent and what came back.
type exchange struct {
	boot    int // which of the run's server boots served it
	phase   int
	req     request
	start   time.Duration // since the run's origin
	latency time.Duration
	bodyLen int // request body bytes
	resp    response
	err     error // transport error, non-2xx status, or failed output check
}

func (e *exchange) ok() bool { return e.err == nil }

// ingestCorpus is the corpus ingest batches are cut from: night-street
// generated with a seed derived from the workload seed, so records have the
// right shape without copying the base corpus. Batch i holds records
// 16i..16i+15, wrapping around the corpus. Request bodies are encoded once,
// before any timing, so the client spends no CPU on JSON while the server
// works.
type ingestCorpus struct {
	ds     *tasti.Dataset
	bodies [][]byte // the POST /ingest body of each batch
}

func newIngestCorpus(ds *tasti.Dataset) (ingestCorpus, error) {
	c := ingestCorpus{ds: ds}
	for i := 0; i < ds.Len()/batchRecords; i++ {
		b, err := c.encode(i)
		if err != nil {
			return c, err
		}
		c.bodies = append(c.bodies, b)
	}
	return c, nil
}

func (c ingestCorpus) batch(i int) ([][]float64, []tasti.Annotation) {
	feats := make([][]float64, batchRecords)
	anns := make([]tasti.Annotation, batchRecords)
	for t := range feats {
		j := (i*batchRecords + t) % c.ds.Len()
		feats[t], anns[t] = c.ds.Records[j].Features, c.ds.Truth[j]
	}
	return feats, anns
}

func (c ingestCorpus) body(i int) []byte { return c.bodies[i%len(c.bodies)] }

type ingestRecord struct {
	Features   []float64                `json:"features"`
	Annotation tasti.AnnotationEnvelope `json:"annotation"`
}

func (c ingestCorpus) encode(i int) ([]byte, error) {
	feats, anns := c.batch(i)
	recs := make([]ingestRecord, len(feats))
	for t := range recs {
		env, err := tasti.AnnotationEnvelopeOf(anns[t])
		if err != nil {
			return nil, err
		}
		recs[t] = ingestRecord{Features: feats[t], Annotation: env}
	}
	return json.Marshal(struct {
		Records []ingestRecord `json:"records"`
	}{recs})
}

// httpClient keeps one connection per closed-loop client alive.
var httpClient = &http.Client{
	Timeout:   3 * time.Minute,
	Transport: &http.Transport{MaxIdleConnsPerHost: 8, DisableCompression: true},
}

// runPhase drives one phase: each generator is a closed-loop client that
// sends its next request only after the previous reply arrived. A timed
// phase stops issuing requests after dur; an untimed one once the first
// client's sequence ends. Requests in flight then complete and count. It
// returns the exchanges and the phase's wall time.
func runPhase(ctx context.Context, url string, idx int, ph phase, gens []generator, dur time.Duration, origin time.Time, ic ingestCorpus) ([]exchange, time.Duration) {
	start := time.Now()
	per := make([][]exchange, len(gens))
	var ended atomic.Bool
	var wg sync.WaitGroup
	for c, g := range gens {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil && !ended.Load() && !(ph.timed && time.Since(start) >= dur) {
				q, more := g.next()
				if !more {
					ended.Store(true)
					return
				}
				per[c] = append(per[c], send(ctx, url, idx, q, origin, ic))
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	var out []exchange
	for _, exs := range per {
		out = append(out, exs...)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].start < out[j].start })
	return out, elapsed
}

// send performs one request and decodes a 200 reply.
func send(ctx context.Context, url string, idx int, q request, origin time.Time, ic ingestCorpus) exchange {
	ex := exchange{phase: idx, req: q}
	var body []byte
	if q.Route == routeIngest {
		body = ic.body(q.Batch)
	} else {
		var err error
		if body, err = json.Marshal(q); err != nil {
			ex.err = err
			return ex
		}
	}
	ex.bodyLen = len(body)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+routePath(q.Route), bytes.NewReader(body))
	if err != nil {
		ex.err = err
		return ex
	}
	req.Header.Set("Content-Type", "application/json")
	t0 := time.Now()
	ex.start = t0.Sub(origin)
	resp, err := httpClient.Do(req)
	if err != nil {
		ex.latency = time.Since(t0)
		ex.err = err
		return ex
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	ex.latency = time.Since(t0)
	switch {
	case err != nil:
		ex.err = err
	case resp.StatusCode != http.StatusOK:
		ex.err = fmt.Errorf("%s: status %d: %s", routePath(q.Route), resp.StatusCode, bytes.TrimSpace(raw))
	default:
		if err := json.Unmarshal(raw, &ex.resp); err != nil {
			ex.err = fmt.Errorf("%s: decoding reply: %w", routePath(q.Route), err)
		}
	}
	return ex
}

// checkExchanges runs the output check of every successful exchange,
// marking failures in place. Ingest batches come from one client in order,
// so acknowledged IDs must run contiguously from the base corpus's size.
// It returns the annotations of every acknowledged ingested record, in ID
// order.
func checkExchanges(exs []exchange, base *tasti.Dataset, ic ingestCorpus) []tasti.Annotation {
	var acked []tasti.Annotation
	for i := range exs {
		ex := &exs[i]
		if ex.req.Route != routeIngest || !ex.ok() {
			continue
		}
		ex.err = checkIngest(ex.resp, base.Len()+len(acked), batchRecords)
		if ex.ok() {
			_, anns := ic.batch(ex.req.Batch)
			acked = append(acked, anns...)
		}
	}
	truth := func(id int) (tasti.Annotation, bool) {
		switch {
		case id >= 0 && id < base.Len():
			return base.Truth[id], true
		case id >= base.Len() && id < base.Len()+len(acked):
			return acked[id-base.Len()], true
		}
		return nil, false
	}
	for i := range exs {
		ex := &exs[i]
		if !ex.ok() {
			continue
		}
		switch ex.req.Route {
		case routeAggregate:
			ex.err = checkAggregate(ex.req, ex.resp)
		case routeSelect:
			ex.err = checkSelect(ex.resp, base.Len()+len(acked))
		case routeLimit:
			ex.err = checkLimit(ex.req, ex.resp, truth)
		}
	}
	return acked
}

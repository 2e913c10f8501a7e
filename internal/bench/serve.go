package bench

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"time"

	"aspen/internal/lang"
	"aspen/internal/serve"
	"aspen/internal/telemetry"
	"aspen/internal/xmlgen"
)

// ServeRow is one grammar's measured service throughput.
type ServeRow struct {
	Grammar      string
	FabricBanks  int
	Contexts     int
	Clients      int
	Requests     int
	ReqPerSec    float64
	MBPerSec     float64
	P50us        float64 // wall-clock per request at full concurrency
	NSPerKB      float64 // normalized cost: wall-clock ns per KiB of document
	AllocsPerReq float64 // heap allocations per request, whole process (client side included)
}

// Serve measures cmd/aspend's serving path end to end: a multi-tenant
// serve.Server behind a real HTTP listener, driven at exactly its
// bank-derived concurrency (one client per fabric context, the §IV-C
// bank-parallelism claim restated as service throughput). Documents are
// sizeBytes long; the JSON tenant parses a synthetic nested document,
// the XML tenant the densest corpus document.
func Serve(sizeBytes int) (*Table, []ServeRow) {
	langs := []*lang.Language{lang.JSON(), lang.XML()}
	srv, err := serve.New(serve.Options{
		Languages: langs,
		Registry:  telemetry.NewRegistry(),
	})
	if err != nil {
		panic(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	docs := map[string][]byte{
		"JSON": jsonDocOfSize(sizeBytes),
		"XML":  xmlgen.Corpus(sizeBytes)[0].Data,
	}

	var rows []ServeRow
	for _, info := range srv.Grammars() {
		doc := docs[info.Name]
		clients := info.Workers
		if clients > 8 {
			clients = 8 // keep bench wall-clock bounded on wide fabrics
		}
		perClient := 8
		total := clients * perClient
		url := ts.URL + "/v1/parse/" + info.Name

		var ms0, ms1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms0)
		var wg sync.WaitGroup
		start := time.Now()
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < perClient; i++ {
					resp, err := http.Post(url, "application/octet-stream", bytes.NewReader(doc))
					if err != nil {
						panic(err)
					}
					if resp.StatusCode != http.StatusOK {
						panic(fmt.Sprintf("bench serve: %s answered %d", info.Name, resp.StatusCode))
					}
					resp.Body.Close()
				}
			}()
		}
		wg.Wait()
		el := time.Since(start).Seconds()
		runtime.ReadMemStats(&ms1)

		rows = append(rows, ServeRow{
			Grammar:      info.Name,
			FabricBanks:  info.FabricShare,
			Contexts:     info.Contexts,
			Clients:      clients,
			Requests:     total,
			ReqPerSec:    float64(total) / el,
			MBPerSec:     float64(total*len(doc)) / el / (1 << 20),
			P50us:        el / float64(total) * float64(clients) * 1e6,
			NSPerKB:      el * 1e9 / (float64(total*len(doc)) / 1024),
			AllocsPerReq: float64(ms1.Mallocs-ms0.Mallocs) / float64(total),
		})
	}

	// Admission-decision overhead, isolated: one goroutine drives the
	// full admission cycle (snapshot lookup, shed checks, the
	// scheduler's inline grant) with no HTTP and no parse.
	// This is the overload layer's per-request tax, and its allocation
	// count is pinned at zero (TestAdmitCycleAllocs) — a nonzero
	// allocs/req here is a steady-state fast-path regression.
	const admitN = 200000
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	for i := 0; i < admitN; i++ {
		if err := srv.BenchAdmitCycle("JSON", int64(sizeBytes)); err != nil {
			panic(err)
		}
	}
	admitEl := time.Since(start)
	runtime.ReadMemStats(&ms1)
	admitNS := float64(admitEl.Nanoseconds()) / admitN
	admitAllocs := float64(ms1.Mallocs-ms0.Mallocs) / admitN

	tbl := &Table{
		ID:    "serve",
		Title: "aspend service throughput at bank-derived concurrency",
		Header: []string{"Grammar", "Fabric banks", "Contexts", "Clients",
			"Requests", "req/s", "MB/s", "µs/req", "ns/KiB", "allocs/req"},
		Notes: []string{
			fmt.Sprintf("Each grammar is driven at min(contexts, 8) concurrent HTTP clients with %d-byte documents; contexts derive from the grammar's bank share (§IV-C).", sizeBytes),
			"allocs/req is whole-process (HTTP client included) and so an upper bound on the server's per-request allocation.",
			"The admit row isolates the admission decision (snapshot lookup, shed checks, the weighted-fair scheduler's inline grant) on one goroutine — no HTTP, no parse; its allocs/req is pinned at zero by TestAdmitCycleAllocs.",
		},
	}
	for _, r := range rows {
		tbl.Rows = append(tbl.Rows, []string{
			r.Grammar, d(r.FabricBanks), d(r.Contexts), d(r.Clients),
			d(r.Requests), f0(r.ReqPerSec), f2(r.MBPerSec), f0(r.P50us),
			f0(r.NSPerKB), f0(r.AllocsPerReq)})
	}
	tbl.Rows = append(tbl.Rows, []string{
		"admit", "-", "-", "1",
		d(admitN), f0(1e9 / admitNS), "-", f2(admitNS / 1e3),
		"-", f0(admitAllocs)})
	return tbl, rows
}

// jsonDocOfSize builds a valid nested JSON document of roughly n bytes.
func jsonDocOfSize(n int) []byte {
	var b strings.Builder
	b.WriteString(`{"items": [`)
	i := 0
	for b.Len() < n-64 {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, `{"id": %d, "name": "item%d", "tags": [1, 2, 3], "ok": true}`, i, i)
		i++
	}
	b.WriteString(`], "count": `)
	fmt.Fprintf(&b, "%d}", i)
	return []byte(b.String())
}

// Command drmap-sweep regenerates the reproduction's ablation tables:
// subarrays-per-bank, on-chip buffer capacity, batch size, the
// soundness of the paper's Table I policy pruning, and the registry
// scan (DRMap DSE totals across every registered DRAM backend). Results
// print as aligned text and can also be exported as CSV.
//
// Usage:
//
//	drmap-sweep [-kind subarrays|buffers|batch|pruning|registry|all] [-arch backend-id]
//	            [-network alexnet|vgg16|lenet5|resnet18] [-csv file] [-server URL]
//
// -arch accepts any registered DRAM backend ID and applies to the
// buffers/batch/pruning sweeps (defaults: ddr3 for buffers/batch,
// salp1 for pruning); the subarrays sweep is SALP-MASA by definition
// and the registry sweep always scans the whole registry.
//
// The subarrays, buffers and batch sweeps run on an in-process service
// (service.Sweep): each point is a DRMap-only DSE job, run concurrently
// through the service's caches. The registry scan is one service batch
// of DRMap-only DSE requests, one per registered backend, so backends
// sharing a die geometry count each grid column once.
//
// -server http://host:8080 runs one sweep remotely on a drmap-serve
// daemon as an asynchronous v2 job (kinds subarrays, buffers or batch;
// the pruning and registry sweeps are local-only) and prints the table
// as JSON.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"

	"drmap"
	"drmap/client"
	"drmap/internal/cli"
	"drmap/internal/report"
	"drmap/internal/service"
	"drmap/internal/sweep"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("drmap-sweep: ")
	kind := flag.String("kind", "all", "sweep: subarrays, buffers, batch, pruning, registry, all")
	archFlag := flag.String("arch", "", "DRAM backend for buffers/batch/pruning: "+cli.BackendList()+" (empty = per-sweep default)")
	networkFlag := flag.String("network", "alexnet", "workload: alexnet, vgg16, lenet5, resnet18")
	csvPath := flag.String("csv", "", "also write the (last) sweep as CSV to this file")
	server := flag.String("server", "", "drmap-serve base URL: run the sweep remotely as a v2 job and print JSON")
	flag.Parse()

	if *server != "" {
		runRemote(*server, *kind, *archFlag, *networkFlag, *csvPath)
		return
	}

	net, err := cli.ParseNetwork(*networkFlag)
	if err != nil {
		log.Fatal(err)
	}
	// Resolve -arch before any sweep burns time.
	pruningBackend, ok := drmap.LookupBackend("salp1")
	if !ok {
		log.Fatal("default backend salp1 not registered")
	}
	if *archFlag != "" {
		if pruningBackend, err = cli.ParseBackend(*archFlag); err != nil {
			log.Fatal(err)
		}
	}

	svc := service.New(service.Options{})
	var last *sweep.Table
	run := func(name string, build func() (*sweep.Table, error)) {
		if *kind != "all" && *kind != name {
			return
		}
		t, err := build()
		if err != nil {
			log.Fatalf("%s sweep: %v", name, err)
		}
		fmt.Print(t.Render())
		fmt.Println()
		last = t
	}
	// serviceSweep runs one ablation sweep on the in-process service;
	// an empty -arch selects the service's ddr3 default.
	serviceSweep := func(kind string) func() (*sweep.Table, error) {
		return func() (*sweep.Table, error) {
			resp, err := svc.Sweep(context.Background(), service.SweepRequest{Kind: kind, Arch: *archFlag, Network: *networkFlag})
			if err != nil {
				return nil, err
			}
			return tableOf(resp.Table), nil
		}
	}

	run("subarrays", serviceSweep("subarrays"))
	run("buffers", serviceSweep("buffers"))
	run("batch", serviceSweep("batch"))
	run("pruning", func() (*sweep.Table, error) {
		return sweep.PolicyPruning(pruningBackend, net.Layers[1], 1)
	})
	run("registry", func() (*sweep.Table, error) {
		return registryScan(svc, *networkFlag, net.Name)
	})

	if last == nil {
		log.Fatalf("unknown sweep kind %q", *kind)
	}
	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := last.WriteCSV(f); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote CSV to %s\n", *csvPath)
	}
}

// runRemote submits one sweep to a drmap-serve daemon as an async v2
// job, waits for it, prints the table JSON, and honors -csv.
func runRemote(server, kind, arch, network, csvPath string) {
	switch kind {
	case "subarrays", "buffers", "batch":
	case "all", "pruning", "registry":
		log.Fatalf("-server runs one sweep kind per invocation (subarrays, buffers or batch); %q is local-only", kind)
	default:
		log.Fatalf("unknown sweep kind %q", kind)
	}
	ctx := context.Background()
	c := client.New(server)
	job, err := c.SubmitSweep(ctx, client.SweepRequest{Kind: kind, Arch: arch, Network: network})
	if err != nil {
		log.Fatalf("submit sweep at %s: %v", server, err)
	}
	fmt.Printf("sweep %s submitted as job %s @ %s\n", kind, job.ID, server)
	final, err := c.Wait(ctx, job.ID)
	if err != nil {
		log.Fatalf("wait for %s: %v", job.ID, err)
	}
	resp, err := client.SweepResultOf(final)
	if err != nil {
		log.Fatalf("job %s finished %s: %v", job.ID, final.State, err)
	}
	s, err := drmap.EncodeJSON(resp)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(s)
	if csvPath != "" {
		t := tableOf(resp.Table)
		f, err := os.Create(csvPath)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := t.WriteCSV(f); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote CSV to %s\n", csvPath)
	}
}

// registryScan is the registry sweep: one service batch of DRMap-only
// DSE requests, one per registered backend. A row is the backend's
// total EDP, the in-order sum of its layers' seconds, and its total
// energy.
func registryScan(svc *service.Service, network, netName string) (*sweep.Table, error) {
	backends := drmap.Backends()
	jobs := make([]service.DSERequest, len(backends))
	for i, b := range backends {
		jobs[i] = service.DSERequest{Arch: b.ID, Network: network, Policies: []int{drmap.DRMapPolicy().ID}}
	}
	resp, err := svc.Batch(context.Background(), service.BatchRequest{Jobs: jobs})
	if err != nil {
		return nil, err
	}
	t := &sweep.Table{
		Name:   "Registry scan: DRMap DSE (" + netName + ", batch 1)",
		Header: []string{"backend", "DRMap-total-EDP[uJs]", "delay[ms]", "energy[mJ]"},
	}
	for i, item := range resp.Results {
		if item.Error != "" {
			return nil, fmt.Errorf("%s: %s", backends[i].ID, item.Error)
		}
		r := item.Result.Result
		var seconds float64
		for _, l := range r.Layers {
			seconds += l.Seconds
		}
		if err := t.AddRow(backends[i].ID, r.TotalEDPJs*1e6, seconds*1e3, r.TotalEnergyJ*1e3); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// tableOf rebuilds a sweep table from its JSON rows, so local and
// remote sweeps share one rendering and one CSV format.
func tableOf(j report.SweepJSON) *sweep.Table {
	t := &sweep.Table{Name: j.Name, Header: j.Header}
	for _, row := range j.Rows {
		t.Labels = append(t.Labels, row.Label)
		t.Rows = append(t.Rows, row.Values)
	}
	return t
}

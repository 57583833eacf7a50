// Service client: planning through the autopiped daemon. The example boots a
// daemon in-process (in real deployments it runs standalone: `autopiped -addr
// host:port`), then plans through the HTTP client twice — the second request
// is served from the content-addressed plan cache without a search — and
// shows a typed rejection crossing the wire intact.
//
//	go run ./examples/service_client
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"

	"autopipe"
	"autopipe/client"
	"autopipe/internal/service"
)

func main() {
	// Boot a daemon on a loopback port.
	srv, err := service.New(service.Config{})
	if err != nil {
		log.Fatal(err)
	}
	srv.Start()
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go func() { _ = http.Serve(ln, srv.Handler()) }()

	c, err := client.New("http://" + ln.Addr().String())
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()

	model := autopipe.GPT2_345M()
	cluster := autopipe.DefaultCluster()
	cluster.NumGPUs = 4
	run := autopipe.Run{MicroBatch: 4, GlobalBatch: 128, Checkpoint: true}

	// First request runs the engine; the result is cached by content address.
	spec, job, err := c.Plan(ctx, model, run, cluster)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("planned %s: depth %d, %d sliced, predicted %.1f ms (job %s, cache hit: %v)\n",
		model.Name, spec.Depth(), spec.NumSliced, spec.Predicted*1e3, job.ID, job.CacheHit)

	// An identical request never reaches the engine again.
	_, job2, err := c.Plan(ctx, model, run, cluster)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("resubmitted identically: job %s, cache hit: %v\n", job2.ID, job2.CacheHit)

	// Typed errors round-trip the wire: errors.Is sees the same sentinel an
	// in-process Planner would return.
	_, _, err = c.Plan(ctx, model, autopipe.Run{MicroBatch: 5, GlobalBatch: 128}, cluster)
	fmt.Printf("invalid run rejected: %v (errors.Is ErrBadConfig: %v)\n",
		err, errors.Is(err, autopipe.ErrBadConfig))
}

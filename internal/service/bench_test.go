package service

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"testing"

	"autopipe/client"
)

// BenchmarkCacheHitRoundTrip measures the daemon's hot path end to end:
// client.Submit of one cached plan, over a loopback connection, through
// Handler and back to a decoded job.
func BenchmarkCacheHitRoundTrip(b *testing.B) {
	srv, err := New(Config{})
	if err != nil {
		b.Fatalf("New: %v", err)
	}
	srv.engine = func(context.Context, client.SubmitRequest) (json.RawMessage, error) { return stubResult(), nil }
	srv.Start()
	hs := httptest.NewServer(srv.Handler())
	defer func() {
		hs.Close()
		srv.Close()
	}()
	c, err := client.New(hs.URL)
	if err != nil {
		b.Fatalf("client.New: %v", err)
	}
	ctx := context.Background()
	req := testPlanBody(0)
	if _, err := c.Submit(ctx, req); err != nil {
		b.Fatalf("warm-up submit: %v", err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		job, err := c.Submit(ctx, req)
		if err != nil {
			b.Fatalf("submit: %v", err)
		}
		if !job.CacheHit {
			b.Fatalf("submit %d was not a cache hit", i)
		}
	}
}

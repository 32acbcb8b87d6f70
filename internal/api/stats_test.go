package api

import (
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// fullStats is a replica's /stats with every field set, each to its own
// value, so a field dropped from or misplaced in a rendering shows.
func fullStats() StatsResponse {
	return StatsResponse{
		Status:         "ok",
		Digest:         "d1",
		ShardSet:       &ShardSetJSON{Set: 1, Sets: 2, TotalShards: 4, TopK: 10},
		Shards:         2,
		Groups:         3,
		IndexBytes:     4096,
		MappingBytes:   512,
		Searched:       101,
		PrunedPostings: 102,
		SessionBatches: 103,
		Accepted:       104,
		RejectedQueue:  105,
		RejectedDrain:  106,
		Batches:        107,
		BatchedQueries: 108,
		QueueLen:       5,
		QueueDepth:     64,
		InFlight:       6,
		BatchSize:      32,
		FlushMicros:    2000,
		MaxInFlight:    7,
		PerShard: []ShardStatsJSON{
			{Rank: 2, Peptides: 11, Rows: 12, IndexBytes: 13, WorkUnits: 14, PrunedPostings: 15, QueryMillis: 16.5},
			{Rank: 3, Peptides: 21, Rows: 22, IndexBytes: 23, WorkUnits: 24, PrunedPostings: 25, QueryMillis: 26.25},
		},
		Scheduler: SchedulerStatsJSON{
			ChunkSize: 8,
			Batches:   31,
			Chunks:    32,
			Steals:    33,
			Stolen:    34,
			PerWorker: []WorkerStatsJSON{
				{Worker: 1, Chunks: 41, Stolen: 42, Steals: 43, WorkUnits: 44, PrunedPostings: 45, BusyMillis: 46.5},
			},
		},
		Cache: &CacheStatsJSON{Hits: 51, Misses: 52, Evictions: 53, Collapsed: 54, Invalidated: 55, Entries: 56, ResidentBytes: 57, CapacityBytes: 58},
	}
}

// fullRouterStats is a router's /stats with every field set.
func fullRouterStats() RouterStatsResponse {
	return RouterStatsResponse{
		Status:            "ok",
		Digest:            "c1",
		Routed:            61,
		Failovers:         62,
		RejectedDrain:     63,
		RejectedNoReplica: 64,
		Scatter:           &RouterScatterJSON{Sets: 2, TotalShards: 4, Covered: 1, SetDigests: []string{"s0", "s1"}, RejectedSetDown: 65},
		Replicas: []RouterReplicaJSON{{
			URL: "http://a", Healthy: true, DigestMismatch: true, Digest: "d1",
			ShardSet: &ShardSetJSON{Set: 1, Sets: 2, TotalShards: 4, TopK: 10},
			QueueLen: 71, InFlight: 72, RouterInFlight: 73, Routed: 74, Failed: 75,
			ProbeAgeMillis: 76, StatsAgeMillis: 77, BytesSent: 78, BytesReceived: 79, Dials: 80,
		}},
		Cache:         &CacheStatsJSON{Hits: 81, Misses: 82, Evictions: 83, Collapsed: 84, Invalidated: 85, Entries: 86, ResidentBytes: 87, CapacityBytes: 88},
		Aggregate:     fullStats(),
		BytesSent:     91,
		BytesReceived: 92,
	}
}

// requireNonZero fails t for every field under v that holds its zero
// value, so a field added to a stats type later has to be set above.
func requireNonZero(t *testing.T, path string, v reflect.Value) {
	t.Helper()
	if v.IsZero() {
		t.Errorf("%s is zero", path)
		return
	}
	switch v.Kind() {
	case reflect.Pointer:
		requireNonZero(t, path, v.Elem())
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			requireNonZero(t, path+"[]", v.Index(i))
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			requireNonZero(t, path+"."+v.Type().Field(i).Name, v.Field(i))
		}
	}
}

// TestStatsDocumentsPinned pins every byte of /stats (as WriteJSON
// renders it) and /metrics for a replica's StatsResponse and a router's
// RouterStatsResponse in which every field is set, against the documents
// in testdata.
func TestStatsDocumentsPinned(t *testing.T) {
	st, rt := fullStats(), fullRouterStats()
	requireNonZero(t, "StatsResponse", reflect.ValueOf(st))
	requireNonZero(t, "RouterStatsResponse", reflect.ValueOf(rt))
	stats := func(v any) []byte {
		rec := httptest.NewRecorder()
		WriteJSON(rec, 200, v)
		return rec.Body.Bytes()
	}
	for name, got := range map[string][]byte{
		"stats.json":         stats(&st),
		"metrics.txt":        FormatMetrics(&st),
		"router-stats.json":  stats(&rt),
		"router-metrics.txt": FormatRouterMetrics(&rt),
	} {
		want, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Errorf("%s differs from testdata:\n got %s\nwant %s", name, got, want)
		}
	}
}

// TestStatsResponseAdd: the router's aggregate of two replica snapshots
// sums every number, takes the chunk size of the last snapshot added, and
// leaves identity, configuration and per-shard and per-worker detail
// alone. A field added to the stats types later fails here until Add
// either sums it or is listed as leaving it alone.
func TestStatsResponseAdd(t *testing.T) {
	kept := map[string]bool{
		"Status": true, "Digest": true, "ShardSet": true, "Shards": true, "Groups": true,
		"BatchSize": true, "FlushMicros": true, "PerShard": true, "PerWorker": true,
	}
	one, last := fullStats(), fullStats()
	last.Scheduler.ChunkSize = 9
	var agg StatsResponse
	agg.Add(one)
	agg.Add(last)
	if agg.Scheduler.ChunkSize != 9 {
		t.Errorf("aggregate chunk size %d, want the last snapshot's 9", agg.Scheduler.ChunkSize)
	}
	agg.Scheduler.ChunkSize = 2 * one.Scheduler.ChunkSize
	var check func(path string, got, want reflect.Value)
	check = func(path string, got, want reflect.Value) {
		switch got.Kind() {
		case reflect.Pointer:
			check(path, got.Elem(), want.Elem())
		case reflect.Struct:
			for i := 0; i < got.NumField(); i++ {
				name := got.Type().Field(i).Name
				if kept[name] {
					if !got.Field(i).IsZero() {
						t.Errorf("%s.%s was aggregated", path, name)
					}
					continue
				}
				check(path+"."+name, got.Field(i), want.Field(i))
			}
		case reflect.Int, reflect.Int64:
			if got.Int() != 2*want.Int() {
				t.Errorf("%s = %d, want the sum %d", path, got.Int(), 2*want.Int())
			}
		default:
			t.Errorf("%s: a %s field neither summed nor left alone", path, got.Kind())
		}
	}
	check("aggregate", reflect.ValueOf(agg), reflect.ValueOf(one))
}

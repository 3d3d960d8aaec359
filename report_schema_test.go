package waitfree

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// The v1 report schema is pinned by a golden file: a canonical CAS(2)
// consensus report must marshal byte-identically to
// testdata/report_v1.golden.json. A failure here means the JSON shape
// changed — rename, retype, reorder, or removal — which is a wire-contract
// break: either revert the change or bump ReportSchema and regenerate
// with `go test -run TestReportGolden -update .`.
func TestReportGoldenV1(t *testing.T) {
	im, err := BuildProtocol("cas", 2)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Check(context.Background(), Request{
		Kind:           KindConsensus,
		Implementation: im,
		Explore:        ExploreOptions{Memoize: true, Parallelism: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	rep.Canonicalize()
	got, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')

	path := filepath.Join("testdata", "report_v1.golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("report JSON diverged from the pinned v1 schema.\ngot:\n%s\nwant:\n%s\n(an intentional change must bump ReportSchema and regenerate with -update)", got, want)
	}
}

func TestReportSchemaStamp(t *testing.T) {
	im, err := BuildProtocol("sticky", 2)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Check(context.Background(), Request{Kind: KindConsensus, Implementation: im})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Schema != ReportSchema {
		t.Fatalf("fresh report carries schema %d, want %d", rep.Schema, ReportSchema)
	}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeReport(data)
	if err != nil {
		t.Fatalf("DecodeReport round trip: %v", err)
	}
	if back.Kind != rep.Kind || back.Schema != ReportSchema {
		t.Fatalf("round trip lost the discriminators: kind=%q schema=%d", back.Kind, back.Schema)
	}
	re, err := json.Marshal(back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, re) {
		t.Error("marshal → DecodeReport → marshal is not byte-identical")
	}
}

func TestDecodeReportRejects(t *testing.T) {
	cases := []struct {
		name string
		data string
	}{
		{"garbage", "not json"},
		{"missing schema", `{"kind":"consensus","elapsed_ns":0}`},
		{"future schema", `{"schema":99,"kind":"consensus","elapsed_ns":0}`},
		{"unknown kind", `{"schema":1,"kind":"mystery","elapsed_ns":0}`},
		{"unknown violation kind", `{"schema":1,"kind":"consensus","elapsed_ns":0,"consensus":{"violation":{"kind":"mystery","detail":""}}}`},
		{"violation kind not a tag", `{"schema":1,"kind":"consensus","elapsed_ns":0,"consensus":{"violation":{"kind":3,"detail":""}}}`},
	}
	for _, c := range cases {
		if _, err := DecodeReport([]byte(c.data)); !errors.Is(err, ErrBadReport) {
			t.Errorf("%s: got %v, want ErrBadReport", c.name, err)
		}
	}
}

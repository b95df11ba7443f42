package wemac

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/features"
)

func TestWriteTrialCSV(t *testing.T) {
	d := Generate(smallConfig())
	var buf bytes.Buffer
	if err := WriteTrialCSV(&buf, &d.Volunteers[0].Trials[0]); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if lines[0] != "time_s,channel,value" {
		t.Errorf("header %q", lines[0])
	}
	wantRows := len(d.Volunteers[0].Trials[0].Rec.BVP) +
		len(d.Volunteers[0].Trials[0].Rec.GSR) +
		len(d.Volunteers[0].Trials[0].Rec.SKT)
	if len(lines)-1 != wantRows {
		t.Errorf("rows %d, want %d", len(lines)-1, wantRows)
	}
	if !strings.Contains(out, ",bvp,") || !strings.Contains(out, ",gsr,") || !strings.Contains(out, ",skt,") {
		t.Error("missing channel rows")
	}
}

func TestWriteFeatureCSV(t *testing.T) {
	d := Generate(smallConfig())
	users, err := ExtractAll(d, features.ExtractorConfig{WindowSec: 8, Windows: 2})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteFeatureCSV(&buf, users[:2]); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	want := 1 + 2*len(users[0].Maps)*features.TotalFeatureCount*2
	if len(lines) != want {
		t.Errorf("rows %d, want %d", len(lines), want)
	}
	if !strings.Contains(lines[1], "hr_mean") && !strings.Contains(buf.String(), "hr_mean") {
		t.Error("feature names missing")
	}
}

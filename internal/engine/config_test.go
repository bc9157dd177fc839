package engine

import (
	"fmt"
	"reflect"
	"sort"
	"testing"
)

// TestConfigSurface pins every settable value of Config — each exported leaf
// field, recursing into exported struct fields — so that a new option shows
// up here as a reviewed one-line edit instead of slipping in unnoticed.
func TestConfigSurface(t *testing.T) {
	want := []string{
		"Admission",
		"Affinity",
		"Containers",
		"Costs.AffinityMiss",
		"Costs.LogWrite",
		"Costs.Processing",
		"Costs.Receive",
		"Costs.Send",
		"DisableCC",
		"Durability.CheckpointBytes",
		"Durability.CheckpointInterval",
		"Durability.Dir",
		"Durability.Mode",
		"Durability.SegmentSize",
		"Durability.Storage",
		"ExecutorsPerContainer",
		"GroupCommit.Enabled",
		"GroupCommit.MaxBatch",
		"GroupCommit.Window",
		"Placement",
		"QueueDepth",
		"Router",
		"Strategy",
	}
	var got []string
	var walk func(prefix string, typ reflect.Type)
	walk = func(prefix string, typ reflect.Type) {
		for _, f := range reflect.VisibleFields(typ) {
			if !f.IsExported() {
				continue
			}
			if f.Type.Kind() == reflect.Struct {
				walk(prefix+f.Name+".", f.Type)
				continue
			}
			got = append(got, prefix+f.Name)
		}
	}
	walk("", reflect.TypeOf(Config{}))
	sort.Strings(got)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("Config has %d settable values, want %d:\n got %v\nwant %v", len(got), len(want), got, want)
	}
}

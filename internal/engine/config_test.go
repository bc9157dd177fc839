package engine

import (
	"fmt"
	"testing"

	"reactdb/internal/optsurface"
)

// TestConfigSurface pins every settable value of Config and ReplicaOptions,
// so that a new option shows up here as a reviewed one-line edit instead of
// slipping in unnoticed.
func TestConfigSurface(t *testing.T) {
	for _, tc := range []struct {
		opts any
		want []string
	}{
		{Config{}, []string{
			"Admission",
			"Affinity",
			"Containers",
			"Costs.AffinityMiss",
			"Costs.Processing",
			"Costs.Receive",
			"Costs.Send",
			"DisableCC",
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
		}},
		{ReplicaOptions{}, []string{
			"Ack",
			"SegmentSize",
			"Storage",
		}},
	} {
		if got := optsurface.Leaves(tc.opts); fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Errorf("%T has %d settable values, want %d:\n got %v\nwant %v", tc.opts, len(got), len(tc.want), got, tc.want)
		}
	}
}

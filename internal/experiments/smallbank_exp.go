package experiments

import (
	"fmt"
	"time"

	"reactdb/internal/bench"
	"reactdb/internal/costmodel"
	"reactdb/internal/engine"
	"reactdb/internal/randutil"
	"reactdb/internal/workload/smallbank"
)

// smallbankDeployment mirrors §4.1.3: seven database containers, one
// transaction executor each, each holding a contiguous range of customer
// reactors; the source account always lives in the first container.
type smallbankDeployment struct {
	db           *engine.Database
	containers   int
	perContainer int
}

func openSmallbank(opts Options) (*smallbankDeployment, error) {
	containers := 7
	perContainer := 10
	if opts.Full {
		perContainer = 1000
	}
	customers := containers * perContainer
	cfg := engine.NewSharedNothing(containers)
	cfg.Placement = smallbank.RangePlacement(perContainer)
	cfg.Costs = opts.commCosts()
	db, err := engine.Open(smallbank.NewDefinition(customers), cfg)
	if err != nil {
		return nil, err
	}
	if err := smallbank.Load(db, customers, 1e9, 1e9); err != nil {
		db.Close()
		return nil, err
	}
	return &smallbankDeployment{db: db, containers: containers, perContainer: perContainer}, nil
}

// sourceAccount returns the customer used as the multi-transfer source: the
// first account of the first container.
func (d *smallbankDeployment) sourceAccount() string { return smallbank.ReactorName(0) }

// remoteDestinations returns size destination accounts, each on a different
// container other than the source's (Figure 5 setup: "each destination is
// chosen on a different container").
func (d *smallbankDeployment) remoteDestinations(size int) []string {
	dsts := make([]string, 0, size)
	for i := 0; i < size; i++ {
		container := 1 + i%(d.containers-1)
		dsts = append(dsts, smallbank.ReactorName(container*d.perContainer+i))
	}
	return dsts
}

// localDestinations returns size destination accounts on the source's own
// container (Appendix B.1's "-local" variant).
func (d *smallbankDeployment) localDestinations(size int) []string {
	dsts := make([]string, 0, size)
	for i := 0; i < size; i++ {
		dsts = append(dsts, smallbank.ReactorName(1+i%(d.perContainer-1)))
	}
	return dsts
}

// spannedDestinations returns seven destinations spread over the given number
// of executors according to the Appendix B.2 variants.
func (d *smallbankDeployment) spannedDestinations(spanned int, variant string, seed int64) []string {
	const size = 7
	rng := randutil.New(seed)
	pick := func(container, idx int) string {
		return smallbank.ReactorName(container*d.perContainer + 1 + idx%(d.perContainer-1))
	}
	dsts := make([]string, 0, size)
	switch variant {
	case "round-robin remote":
		local := size - spanned + 1
		for i := 0; i < local; i++ {
			dsts = append(dsts, pick(0, i))
		}
		for i := 0; i < size-local; i++ {
			dsts = append(dsts, pick(1+i%(spanned-1), i))
		}
	case "round-robin all":
		for i := 0; i < size; i++ {
			dsts = append(dsts, pick(i%spanned, i))
		}
	default: // random
		for i := 0; i < size; i++ {
			dsts = append(dsts, pick(randutil.UniformInt(rng, 0, d.containers-1), i))
		}
	}
	return dsts
}

// measureMultiTransfer runs n multi-transfer transactions of the given
// formulation against fixed destinations and returns the profile summary.
func (d *smallbankDeployment) measureMultiTransfer(f smallbank.Formulation, dsts []string, n int) (bench.ProfileSummary, error) {
	proc, sequential := smallbank.MultiTransferProcedure(f)
	src := d.sourceAccount()
	return bench.MeasureProfiles(d.db, n, func() bench.Request {
		args := []any{src, dsts, 1.0}
		if proc == smallbank.ProcMultiTransferSync {
			args = append(args, sequential)
		}
		return bench.Request{Reactor: src, Procedure: proc, Args: args}
	})
}

func (o Options) profileCount() int {
	if o.Full {
		return 200
	}
	return 25
}

// transferSeries is one column of a multi-transfer latency table: a program
// formulation and how its destination accounts are chosen at each x.
type transferSeries struct {
	name string
	f    smallbank.Formulation
	dsts func(d *smallbankDeployment, x int) []string
}

// multiTransferLatencies measures, on one Smallbank deployment and with one
// worker, the mean multi-transfer latency of every series at x = 1..7 (the
// transaction size, or the number of executors spanned).
func multiTransferLatencies(opts Options, id, title, xHeader string, series []transferSeries, note string) (*Table, error) {
	d, err := openSmallbank(opts)
	if err != nil {
		return nil, err
	}
	defer d.db.Close()

	const points = 7
	names := make([]string, len(series))
	labels := make([]string, points)
	cells := make([][]string, points)
	for x := 1; x <= points; x++ {
		labels[x-1] = fmt.Sprintf("%d", x)
		for i, s := range series {
			names[i] = s.name
			sum, err := d.measureMultiTransfer(s.f, s.dsts(d, x), opts.profileCount())
			if err != nil {
				return nil, err
			}
			cells[x-1] = append(cells[x-1], formatDuration(sum.MeanTotal))
		}
	}
	return seriesTable(id, title, xHeader, names, labels, note,
		func(row, col int) string { return cells[row][col] }), nil
}

// Fig5 reproduces Figure 5: average multi-transfer latency versus transaction
// size for the four program formulations, on the shared-nothing deployment.
func Fig5(opts Options) (*Table, error) {
	var series []transferSeries
	for _, f := range smallbank.Formulations() {
		series = append(series, transferSeries{string(f) + " [ms]", f, (*smallbankDeployment).remoteDestinations})
	}
	return multiTransferLatencies(opts, "fig5",
		"Latency vs. size and user program formulations (Smallbank multi-transfer, shared-nothing, 1 worker)",
		"txn size", series,
		"expected shape: latency grows with size; fully-sync slowest, opt fastest (paper Figure 5)")
}

// Fig6 reproduces Figure 6: the latency breakdown of fully-sync and opt into
// cost-model components, observed and predicted (parameters calibrated from
// the size-1 fully-sync run).
func Fig6(opts Options) (*Table, error) {
	d, err := openSmallbank(opts)
	if err != nil {
		return nil, err
	}
	defer d.db.Close()

	// Calibration run: fully-sync with a single destination.
	calib, err := d.measureMultiTransfer(smallbank.FullySync, d.remoteDestinations(1), opts.profileCount())
	if err != nil {
		return nil, err
	}
	params := costmodel.Params{Cs: d.db.Config().Costs.Send, Cr: d.db.Config().Costs.Receive}
	// The calibration transaction performs one remote credit and one local
	// debit; its blocked wait approximates the remote credit's execution and
	// its sync component approximates the local write plus dispatch logic.
	writeCost := calib.MeanBlocked
	localCost := calib.MeanSync / 2
	if localCost <= 0 {
		localCost = 5 * time.Microsecond
	}

	predict := func(f smallbank.Formulation, size int) costmodel.Components {
		root := &costmodel.SubTxn{Container: 0}
		for i := 0; i < size; i++ {
			dest := 1 + i%6
			switch f {
			case smallbank.FullySync:
				root.SyncSeq = append(root.SyncSeq,
					costmodel.Sequential(0, localCost, costmodel.Leaf(dest, writeCost)))
			default: // opt
				root.Async = append(root.Async, costmodel.Leaf(dest, writeCost))
			}
		}
		if f == smallbank.Opt {
			root.SyncOvp = []*costmodel.SubTxn{costmodel.Leaf(0, localCost)}
		}
		return costmodel.Predict(root, params)
	}

	t := &Table{
		ID:    "fig6",
		Title: "Latency breakdown into cost model components (observed vs. predicted)",
		Header: []string{"txn size", "formulation", "sync-exec [ms]", "Cs [ms]", "Cr [ms]",
			"async-exec [ms]", "commit+input [ms]", "total obs [ms]", "total pred [ms]"},
	}
	for _, size := range []int{1, 4, 7} {
		dsts := d.remoteDestinations(size)
		for _, f := range []smallbank.Formulation{smallbank.FullySync, smallbank.Opt} {
			s, err := d.measureMultiTransfer(f, dsts, opts.profileCount())
			if err != nil {
				return nil, err
			}
			syncExec := s.MeanSync
			asyncExec := s.MeanBlocked
			if f == smallbank.FullySync {
				// Immediately awaited sub-transactions are synchronous child
				// executions in the paper's breakdown.
				syncExec += s.MeanBlocked
				asyncExec = 0
			}
			pred := predict(f, size)
			t.AddRow(
				fmt.Sprintf("%d", size), string(f),
				formatDuration(syncExec), formatDuration(s.MeanCs), formatDuration(s.MeanCr),
				formatDuration(asyncExec), formatDuration(s.MeanCommit),
				formatDuration(s.MeanTotal), formatDuration(pred.Total()+s.MeanCommit),
			)
		}
	}
	t.Notes = append(t.Notes, "predicted totals include the measured commit+input component, which the cost equation excludes (as in the paper)")
	return t, nil
}

// Fig11 reproduces Figure 11 (Appendix B.1): latency of fully-sync and opt
// when destinations are remote (span all containers) versus local (same
// container as the source).
func Fig11(opts Options) (*Table, error) {
	remote, local := (*smallbankDeployment).remoteDestinations, (*smallbankDeployment).localDestinations
	return multiTransferLatencies(opts, "fig11",
		"Latency vs. size for local vs. remote destination reactors", "txn size",
		[]transferSeries{
			{"fully-sync-remote [ms]", smallbank.FullySync, remote},
			{"fully-sync-local [ms]", smallbank.FullySync, local},
			{"opt-remote [ms]", smallbank.Opt, remote},
			{"opt-local [ms]", smallbank.Opt, local},
		},
		"expected shape: fully-sync-remote rises sharply; local variants grow only with processing (paper Figure 11)")
}

// Fig12 reproduces Figure 12 (Appendix B.2): latency of a size-7 fully-sync
// multi-transfer as the destinations span a varying number of transaction
// executors, for the three destination-selection variants.
func Fig12(opts Options) (*Table, error) {
	var series []transferSeries
	for _, variant := range []string{"round-robin remote", "round-robin all", "random"} {
		series = append(series, transferSeries{variant + " [ms]", smallbank.FullySync,
			func(d *smallbankDeployment, spanned int) []string {
				return d.spannedDestinations(spanned, variant, int64(spanned))
			}})
	}
	return multiTransferLatencies(opts, "fig12",
		"Latency vs. number of transaction executors spanned (fully-sync, size 7)",
		"executors spanned", series,
		"expected shape: latency grows with the number of remote calls implied by each selection variant (paper Figure 12)")
}

package engine

// route decides which transaction executor of the container runs an incoming
// (sub-)transaction for a reactor (paper §3.1: "transaction routers decide the
// transaction executor that should run a transaction or sub-transaction
// according to a given policy, e.g., round-robin or affinity-based"). The
// policy is Config.Router: round-robin load-balances requests regardless of
// the reactor (the shared-everything-without-affinity deployment); affinity
// sends every request for a reactor to the same executor, preserving
// program-to-data affinity.
//
// Routing is a placement decision, not necessarily a pin: with work stealing
// enabled (Config.Steal) a routed root task may still migrate to an idle
// sibling before it starts, unless the deployment pins it through an explicit
// Config.Affinity function under the affinity router (Config.pinnedAffinity;
// the task is stamped affine at dispatch and stealTail skips it).
func (c *Container) route(reactor string) *Executor {
	switch c.db.cfg.Router {
	case RouterRoundRobin:
		n := c.nextExecutor.Add(1) - 1
		return c.executors[n%uint64(len(c.executors))]
	default:
		return c.executors[c.db.cfg.affinityFor(reactor)]
	}
}

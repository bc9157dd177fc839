package rel

import "fmt"

// plan is a compiled join pipeline plus the alias order it was built in.
type plan struct {
	root  Operator
	order []string
}

// planJoins picks a left-deep join order over the materialized leaves and
// builds the operator tree. The default planner is statistics-free greedy in
// the spirit of janus-datalog's "when greedy beats optimal": it never
// estimates cardinalities, it orders by the *actual* sizes of the filtered
// input batches — start from the smallest leaf, then repeatedly join the
// smallest leaf connected to the chosen set by at least one equi-join
// predicate, deferring disconnected leaves (cross products) until no
// connected leaf remains. Ties break by declaration order, so plans are
// deterministic.
func planJoins(leaves []*leaf, joins []JoinPred) (*plan, error) {
	if len(leaves) == 1 && len(joins) > 0 {
		return nil, fmt.Errorf("rel: query: joins declared over a single source")
	}

	order := make([]*leaf, 0, len(leaves))
	if len(leaves) == 1 {
		order = append(order, leaves...)
	} else {
		chosen := make(map[string]bool, len(leaves))
		remaining := append([]*leaf{}, leaves...)
		// Seed with the smallest leaf.
		best := 0
		for i, lf := range remaining {
			if len(lf.rows) < len(remaining[best].rows) {
				best = i
			}
		}
		order = append(order, remaining[best])
		chosen[remaining[best].alias] = true
		remaining = append(remaining[:best], remaining[best+1:]...)

		connected := func(lf *leaf) bool {
			for _, j := range joins {
				if (chosen[j.LeftAlias] && j.RightAlias == lf.alias) ||
					(chosen[j.RightAlias] && j.LeftAlias == lf.alias) {
					return true
				}
			}
			return false
		}
		for len(remaining) > 0 {
			best := -1
			for i, lf := range remaining {
				if !connected(lf) {
					continue
				}
				if best < 0 || len(lf.rows) < len(remaining[best].rows) {
					best = i
				}
			}
			if best < 0 {
				// No leaf joins the chosen set: unavoidable cross product.
				// Take the smallest remaining leaf to keep it cheap.
				best = 0
				for i, lf := range remaining {
					if len(lf.rows) < len(remaining[best].rows) {
						best = i
					}
				}
			}
			order = append(order, remaining[best])
			chosen[remaining[best].alias] = true
			remaining = append(remaining[:best], remaining[best+1:]...)
		}
	}
	return buildJoins(order, joins)
}

// buildJoins builds the left-deep tree joining the leaves in the given order:
// each join applies every predicate between the current set and the incoming
// leaf as one multi-column hash join.
func buildJoins(order []*leaf, joins []JoinPred) (*plan, error) {
	var root Operator = &sliceScan{cols: order[0].cols, rows: order[0].rows}
	aliases := []string{order[0].alias}
	inSet := map[string]bool{order[0].alias: true}
	for _, lf := range order[1:] {
		var leftIdx, rightIdx []int
		for _, j := range joins {
			var setCol, leafCol string
			switch {
			case inSet[j.LeftAlias] && j.RightAlias == lf.alias:
				setCol, leafCol = j.LeftAlias+"."+j.LeftCol, lf.alias+"."+j.RightCol
			case inSet[j.RightAlias] && j.LeftAlias == lf.alias:
				setCol, leafCol = j.RightAlias+"."+j.RightCol, lf.alias+"."+j.LeftCol
			default:
				continue
			}
			li := colIndex(root.Columns(), setCol)
			ri := colIndex(lf.cols, leafCol)
			if li < 0 || ri < 0 {
				return nil, fmt.Errorf("rel: query: cannot resolve join %s = %s", setCol, leafCol)
			}
			leftIdx = append(leftIdx, li)
			rightIdx = append(rightIdx, ri)
		}
		root = newHashJoinOp(root, lf.cols, lf.rows, leftIdx, rightIdx)
		aliases = append(aliases, lf.alias)
		inSet[lf.alias] = true
	}

	// Reject join predicates that never applied (referencing the same alias
	// pair twice is fine; referencing aliases outside the query was caught by
	// Execute's validation, so this guards planner bugs only).
	if len(order) > 1 {
		for _, j := range joins {
			if !inSet[j.LeftAlias] || !inSet[j.RightAlias] {
				return nil, fmt.Errorf("rel: query: join references alias outside the query (%s, %s)", j.LeftAlias, j.RightAlias)
			}
		}
	}
	return &plan{root: root, order: aliases}, nil
}

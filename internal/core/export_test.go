package core

// BlockStartWork classifies the Select that just returned on p, given how
// many networks awaited exploration before it. started reports whether the
// Select began a block; scanned whether that block start's periodic reset
// check had to scan the distribution's extrema (some block count had
// reached resetX); main whether the block was a main block (chosen by the
// greedy-or-random draw rather than by switch-back or exploration).
func BlockStartWork(p *SmartEXP3, exploreBefore int) (started, scanned, main bool) {
	started = p.slotIn == 0
	scanned = started && p.maxX >= p.resetX
	main = started && !p.curIsSB && len(p.explore) == exploreBefore
	return started, scanned, main
}

// PendingExplore returns how many networks await exploration on p.
func PendingExplore(p *SmartEXP3) int { return len(p.explore) }

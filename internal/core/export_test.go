package core

// BlockStartWork classifies the Select that just returned on p, given how
// many networks awaited exploration before it. started reports whether the
// Select began a block; filled whether that block start computed the full
// selection distribution; main whether the block was a main block (chosen
// by the greedy-or-random draw rather than by switch-back or exploration).
func BlockStartWork(p *SmartEXP3, exploreBefore int) (started, filled, main bool) {
	started = p.slotIn == 0
	filled = started && p.probsValid
	main = started && !p.curIsSB && len(p.explore) == exploreBefore
	return started, filled, main
}

// PendingExplore returns how many networks await exploration on p.
func PendingExplore(p *SmartEXP3) int { return len(p.explore) }

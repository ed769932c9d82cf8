package analysis

import (
	"repro/internal/core"
)

// The qualitative Table 1 claims about CAMPUS that need real
// computation: the share of peak-hour file instances that are lock
// files or mailboxes (§6.3), and the share of data bytes moved to and
// from mailboxes. Both are single-pass streaming accumulators that
// defer categorization to Finish, when the full name→category map is
// known — equivalent to the paper's two-pass reconstruction, and what
// lets the pipeline shard them by file handle.

// PeakHourInstances counts the distinct file instances referenced in a
// fixed window and, of those, how many are lock files and mailboxes.
type PeakHourInstances struct {
	From, To float64

	cat       map[core.FH]NameCategory
	instances map[core.FH]bool
}

// NewPeakHourInstances prepares a count over [from, to).
func NewPeakHourInstances(from, to float64) *PeakHourInstances {
	return &PeakHourInstances{
		From: from, To: to,
		cat:       make(map[core.FH]NameCategory),
		instances: make(map[core.FH]bool),
	}
}

// Add folds one operation in. Name learning runs over the whole stream
// (the §4.1.1 reconstruction — data ops carry only the handle);
// instance collection is restricted to the window.
func (p *PeakHourInstances) Add(op *core.Op) {
	if op.NewFH != 0 && op.Name != "" {
		p.cat[op.NewFH] = Categorize(op.Name)
	}
	if op.T < p.From || op.T >= p.To {
		return
	}
	switch op.Proc {
	case core.ProcRead, core.ProcWrite, core.ProcGetattr, core.ProcSetattr,
		core.ProcAccess, core.ProcCommit:
		p.note(op.FH)
	case core.ProcCreate, core.ProcLookup:
		p.note(op.NewFH)
	}
}

func (p *PeakHourInstances) note(fh core.FH) {
	if fh != 0 {
		p.instances[fh] = true
	}
}

// PeakHourResult is the finished count.
type PeakHourResult struct {
	Instances int
	Locks     int
	Mailboxes int
}

// LockFrac reports lock files as a fraction of instances.
func (r PeakHourResult) LockFrac() float64 {
	if r.Instances == 0 {
		return 0
	}
	return float64(r.Locks) / float64(r.Instances)
}

// MailboxFrac reports mailboxes as a fraction of instances.
func (r PeakHourResult) MailboxFrac() float64 {
	if r.Instances == 0 {
		return 0
	}
	return float64(r.Mailboxes) / float64(r.Instances)
}

// Finish categorizes the collected instances with the final name map.
func (p *PeakHourInstances) Finish() PeakHourResult {
	var r PeakHourResult
	for fh := range p.instances {
		r.Instances++
		switch p.cat[fh] {
		case CatLock:
			r.Locks++
		case CatMailbox:
			r.Mailboxes++
		}
	}
	return r
}

// Merge folds other's category map and instance set into p. Later
// name observations (other's) win, as they would in one pass.
func (p *PeakHourInstances) Merge(other *PeakHourInstances) {
	for fh, c := range other.cat {
		p.cat[fh] = c
	}
	for fh := range other.instances {
		p.instances[fh] = true
	}
}

// MailboxShare accumulates the data bytes moved per file alongside the
// mailbox and large-file handle sets, deferring the share computation
// to Finish so that late name discoveries still count.
type MailboxShare struct {
	mailboxFH map[core.FH]bool
	big       map[core.FH]bool
	bytes     map[core.FH]uint64
}

// NewMailboxShare returns an empty accumulator.
func NewMailboxShare() *MailboxShare {
	return &MailboxShare{
		mailboxFH: make(map[core.FH]bool),
		big:       make(map[core.FH]bool),
		bytes:     make(map[core.FH]uint64),
	}
}

// Add folds one operation in.
func (m *MailboxShare) Add(op *core.Op) {
	if op.NewFH != 0 && Categorize(op.Name) == CatMailbox {
		m.mailboxFH[op.NewFH] = true
	}
	// Handles populated before the trace (setup inboxes) are found by
	// size: multi-megabyte files on CAMPUS are mailboxes. The paper
	// identifies them by name via the same hierarchy trick.
	if op.Size > 1<<20 {
		m.big[op.FH] = true
	}
	if op.IsRead() || op.IsWrite() {
		m.bytes[op.FH] += op.Bytes()
	}
}

// Merge folds other's handle sets and byte counts into m: sets union,
// counts sum.
func (m *MailboxShare) Merge(other *MailboxShare) {
	for fh := range other.mailboxFH {
		m.mailboxFH[fh] = true
	}
	for fh := range other.big {
		m.big[fh] = true
	}
	for fh, n := range other.bytes {
		m.bytes[fh] += n
	}
}

// MailboxShareResult carries the byte sums; Share applies the fallback
// rule to them.
type MailboxShareResult struct {
	Mailbox uint64 // bytes moved on named-mailbox handles
	Alt     uint64 // bytes moved on named-mailbox or multi-megabyte handles
	Total   uint64 // all data bytes
}

// Finish sums the per-file byte counts against the final handle sets.
func (m *MailboxShare) Finish() MailboxShareResult {
	var r MailboxShareResult
	for fh, n := range m.bytes {
		r.Total += n
		if m.mailboxFH[fh] {
			r.Mailbox += n
		}
		if m.mailboxFH[fh] || m.big[fh] {
			r.Alt += n
		}
	}
	return r
}

// Share returns (mailbox, total) bytes under the fallback rule: when
// named mailboxes account for under half the bytes, the large-file
// estimate stands in.
func (r MailboxShareResult) Share() (mailbox, total uint64) {
	if r.Total > 0 && float64(r.Mailbox)/float64(r.Total) < 0.5 {
		return r.Alt, r.Total
	}
	return r.Mailbox, r.Total
}

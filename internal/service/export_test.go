package service

// JournalCompacted exposes the journal's compaction counters to the
// external test package: the records the last compaction wrote and the
// records all compactions have written (zero without a journal).
func (s *Server) JournalCompacted() (last int, rewritten uint64) {
	if s.jrnl == nil {
		return 0, 0
	}
	return s.jrnl.Compacted()
}

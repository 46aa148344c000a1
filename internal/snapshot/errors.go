package snapshot

import "fmt"

// VersionError reports a snapshot written by an incompatible format
// version. The format version is bumped whenever the serialized state
// layout changes; old snapshots are rejected rather than misread.
type VersionError struct {
	Got, Want uint16
}

func (e *VersionError) Error() string {
	return fmt.Sprintf("snapshot: format version %d, this build reads version %d", e.Got, e.Want)
}

// CorruptError reports a snapshot whose bytes cannot be trusted: bad
// magic, failed checksum, truncation, or internally inconsistent state
// discovered while loading (e.g. more resident flits than a buffer can
// hold).
type CorruptError struct {
	Detail string
}

func (e *CorruptError) Error() string {
	return "snapshot: corrupt: " + e.Detail
}

func corruptf(format string, args ...any) *CorruptError {
	return &CorruptError{Detail: fmt.Sprintf(format, args...)}
}

// MismatchError reports a structurally valid snapshot that belongs to a
// different simulation: the config-hash guard (or a section-level
// structural check) failed. Restoring it would silently mix two
// unrelated runs, so it is refused.
type MismatchError struct {
	Field     string // what differed ("config_hash", "ports", ...)
	Got, Want string
}

func (e *MismatchError) Error() string {
	return fmt.Sprintf("snapshot: %s mismatch: snapshot has %q, restoring system has %q", e.Field, e.Got, e.Want)
}

// UnsupportedError reports simulator state that cannot be serialized
// (flit payloads of an unregistered type). The simulation itself is
// fine; it just cannot be checkpointed.
type UnsupportedError struct {
	Component string
}

func (e *UnsupportedError) Error() string {
	return "snapshot: cannot serialize " + e.Component
}

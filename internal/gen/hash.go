package gen

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
)

// CanonicalJSON returns the instance's canonical serialisation: the
// WriteJSON document, compact. Its field and element order is fully
// determined by the instance (rows, cells and nets serialise in their
// stored order), so two instances describing the same problem produce
// byte-identical canonical JSON. These are the bytes ocserved's
// journal stores for a run, and Hash names exactly them, which is what
// makes it a stable identity for caching, journaling and
// crash-recovery equivalence. ReadJSON of the canonical bytes gives an
// instance whose CanonicalJSON is the same bytes (FuzzReadJSON).
func (inst *Instance) CanonicalJSON() ([]byte, error) {
	return json.Marshal(inst.document())
}

// Hash returns the canonical content hash of the instance: the hex
// SHA-256 of CanonicalJSON. Routing is byte-deterministic, so equal
// instance hashes imply byte-identical routing results under equal
// options — the invariant crash recovery verifies.
func (inst *Instance) Hash() (string, error) {
	b, err := inst.CanonicalJSON()
	if err != nil {
		return "", err
	}
	return HashBytes(b), nil
}

// HashBytes is the hash primitive behind Hash, exposed so callers
// that already hold canonical bytes (the serve accept path journals
// them anyway) can hash without re-serialising.
func HashBytes(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

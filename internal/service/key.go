package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"autopipe/client"
	"autopipe/internal/errdefs"
)

// keyVersion is baked into every cache key so a change to the key document
// shape (or to what the engine computes for a given request) invalidates the
// whole cache instead of silently serving stale plans.
const keyVersion = "autopiped-key/1"

// keyDoc is the canonical content hashed into a job's cache key: the job
// kind plus exactly the request fields that determine its result.
//
// Deliberately absent: anything about the host. The engine is deterministic
// by construction — each search is serial and reads no clock or core count
// that can steer it — so daemons on different machines agree on every key.
// The search budget IS present: a truncated search can return a different
// plan.
// encoding/json marshals struct fields in declaration order, so the encoding
// (and therefore the hash) is canonical for a fixed keyVersion.
type keyDoc struct {
	Version string              `json:"version"`
	Kind    string              `json:"kind"`
	Plan    *client.PlanPayload `json:"plan,omitempty"`
	// RawProfile inlines the profile for simulate/slice kinds.
	RawProfile json.RawMessage `json:"profile,omitempty"`
}

// Key returns the content address of a validated request:
// "sha256:<hex>" over the canonical key document.
func Key(req client.SubmitRequest) (string, error) {
	doc := keyDoc{Version: keyVersion, Kind: req.Kind}
	switch req.Kind {
	case client.KindPlan:
		doc.Plan = req.Plan
	case client.KindSimulate, client.KindSlice:
		raw, err := json.Marshal(req.Profile)
		if err != nil {
			return "", fmt.Errorf("%w: service: hash profile: %v", errdefs.ErrBadConfig, err)
		}
		doc.RawProfile = raw
	default:
		return "", fmt.Errorf("%w: service: cannot key unknown kind %q", errdefs.ErrBadConfig, req.Kind)
	}
	data, err := json.Marshal(doc)
	if err != nil {
		return "", fmt.Errorf("%w: service: hash request: %v", errdefs.ErrBadConfig, err)
	}
	sum := sha256.Sum256(data)
	return "sha256:" + hex.EncodeToString(sum[:]), nil
}

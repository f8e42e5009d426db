package main

import (
	"encoding/json"
	"slices"
	"testing"

	"alpacomm/internal/service"
)

// TestCheckAcceptsColdFallbackOfOverlay: a churn overlay whose healthy
// twin the server's LRU evicted is planned cold, and that plan differs
// from the warm replan; check must accept both and nothing else.
func TestCheckAcceptsColdFallbackOfOverlay(t *testing.T) {
	var req service.PlanRequest
	body := `{"topology":{"name":"p3","hosts":4},"shape":[1024,2048],"dtype":"fp32",` +
		`"src":{"mesh":"2x4@0","spec":"S1R"},"dst":{"mesh":"2x4@8","spec":"RS01"},` +
		`"options":{"seed":474116563},"faults":{"hosts":[{"host":2,"nic_scale":0.795258}]}}`
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		t.Fatal(err)
	}
	ref, err := replan(&req)
	if err != nil {
		t.Fatal(err)
	}
	if ref.cold == nil || slices.Equal(ref.senders, ref.cold.senders) {
		t.Fatal("want an overlay whose cold plan differs from its warm replan")
	}
	served := func(r *reference) *service.PlanResponse {
		return &service.PlanResponse{Key: r.key, NumUnits: r.units, Senders: slices.Clone(r.senders),
			Order: r.order, MakespanSeconds: r.makespan, NumOps: r.numOps}
	}
	for _, r := range []*reference{&ref, ref.cold} {
		if err := ref.check(served(r)); err != nil {
			t.Errorf("check rejected a plan the server serves: %v", err)
		}
	}
	bad := served(&ref)
	bad.Senders[0], bad.Senders[2] = bad.Senders[2], bad.Senders[0]
	if slices.Equal(bad.Senders, ref.cold.senders) || ref.check(bad) == nil {
		t.Error("check accepted a plan that is neither the warm replan nor the cold plan")
	}
}

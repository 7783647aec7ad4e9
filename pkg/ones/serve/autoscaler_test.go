package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"repro/pkg/ones"
)

// reactiveSpec overloads a 2-server cluster so the controller must grow
// and later shrink the fleet (the engine acceptance cell over HTTP).
func reactiveSpec() RunSpec {
	return RunSpec{
		Scheduler:    "tiresias",
		Scenario:     "burst",
		Autoscaler:   "reactive-aggressive",
		Servers:      2,
		Jobs:         10,
		Interarrival: 8,
		Seed:         7,
	}
}

// TestDaemonReactiveRun: a reactive autoscaler run over HTTP reports the
// controller's activity in the final Result, and the registry endpoint
// lists the policy the run used.
func TestDaemonReactiveRun(t *testing.T) {
	srv, ts := newTestServer(t, "")
	defer func() {
		srv.Shutdown(context.Background())
		ts.Close()
	}()

	var list struct {
		Autoscalers []ones.AutoscalerInfo `json:"autoscalers"`
	}
	if err := json.Unmarshal(doJSON(t, "GET", ts.URL+"/v1/autoscalers", nil, http.StatusOK), &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Autoscalers) < 3 {
		t.Fatalf("autoscalers = %+v", list.Autoscalers)
	}
	seen := false
	for _, a := range list.Autoscalers {
		if a.Name == "" || a.Title == "" {
			t.Errorf("autoscaler info incomplete: %+v", a)
		}
		seen = seen || a.Name == "reactive-aggressive"
	}
	if !seen {
		t.Fatalf("reactive-aggressive missing from %+v", list.Autoscalers)
	}

	st := createRun(t, ts.URL, reactiveSpec())
	st = waitStatus(t, ts.URL, st.ID, StatusDone, 60*time.Second)
	if st.Result == nil {
		t.Fatal("done run has no result")
	}
	if st.Result.Autoscaler != "reactive-aggressive" {
		t.Errorf("Result.Autoscaler = %q", st.Result.Autoscaler)
	}
	if st.Result.ScaleUps == 0 || st.Result.ScaleDowns == 0 {
		t.Errorf("closed loop inert over HTTP: ups=%d downs=%d", st.Result.ScaleUps, st.Result.ScaleDowns)
	}
	if st.Result.AutoscaleEvents != st.Result.ScaleUps+st.Result.ScaleDowns {
		t.Errorf("AutoscaleEvents %d != %d + %d", st.Result.AutoscaleEvents, st.Result.ScaleUps, st.Result.ScaleDowns)
	}
}

// TestDaemonUnknownAutoscaler: a bad policy name is a 422, like unknown
// schedulers and scenarios.
func TestDaemonUnknownAutoscaler(t *testing.T) {
	srv, ts := newTestServer(t, "")
	defer func() {
		srv.Shutdown(context.Background())
		ts.Close()
	}()
	doJSON(t, "POST", ts.URL+"/v1/runs", RunSpec{Autoscaler: "bogus"}, http.StatusUnprocessableEntity)
}

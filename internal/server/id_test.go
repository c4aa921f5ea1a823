package server

import (
	"bytes"
	"net/http/httptest"
	"sort"
	"strconv"
	"testing"

	rfidclean "repro"
)

func TestSplitIDAndIDLess(t *testing.T) {
	ordered := []string{"d1", "d2", "d9", "d10", "d11", "d100"}
	for i := 0; i < len(ordered); i++ {
		for j := 0; j < len(ordered); j++ {
			got := IDLess(ordered[i], ordered[j])
			if want := i < j; got != want {
				t.Errorf("IDLess(%s, %s) = %v, want %v", ordered[i], ordered[j], got, want)
			}
		}
	}
	// Mixed prefixes and non-numeric ids fall back to lexicographic order.
	if !IDLess("d2", "t1") || IDLess("t1", "d2") {
		t.Error("cross-prefix ids should order lexicographically")
	}
	if !IDLess("abc", "abd") {
		t.Error("non-numeric ids should order lexicographically")
	}
	if n, ok := idNum("t", "t42"); !ok || n != 42 {
		t.Errorf("idNum(t, t42) = %d, %v", n, ok)
	}
	if _, ok := idNum("t", "d42"); ok {
		t.Error("idNum should reject a mismatched prefix")
	}
	if _, ok := idNum("t", "t"); ok {
		t.Error("idNum should reject a missing suffix")
	}
}

// TestDeploymentListNumericOrder: with ten-plus deployments the listing must
// read d2 before d10 — the lexicographic sort the endpoint used to apply put
// d10 between d1 and d2.
func TestDeploymentListNumericOrder(t *testing.T) {
	srv := openServer(t, Options{})
	defer srv.Close()
	depJSON, _ := testDeployment(t)
	dep, err := rfidclean.DecodeDeployment(bytes.NewReader(depJSON))
	if err != nil {
		t.Fatal(err)
	}
	// Alias one decoded deployment under ids d1..d12 directly — the ordering
	// under test lives in the handler, not in registration, and re-running
	// calibration twelve times buys nothing.
	for i := 1; i <= 12; i++ {
		id := "d" + strconv.Itoa(i)
		srv.deployments[id] = &deployment{id: id, dep: dep}
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	var rows []struct {
		ID string `json:"id"`
	}
	if code := getJSON(t, ts.URL+"/v1/deployments", &rows); code != 200 {
		t.Fatalf("list status = %d", code)
	}
	if len(rows) != 12 {
		t.Fatalf("rows = %d, want 12", len(rows))
	}
	for i, r := range rows {
		if want := "d" + strconv.Itoa(i+1); r.ID != want {
			t.Fatalf("row %d = %s, want %s (full order %v)", i, r.ID, want, ids(rows))
		}
	}
}

// TestTrajectoryListNumericOrder mirrors the deployment check on the
// trajectory listing: t2 before t10.
func TestTrajectoryListNumericOrder(t *testing.T) {
	cs := testCleaneds(t, 11)
	st := newTrajStore(0, 1, 0, newMetrics())
	st.addBatch("d1", cs)
	rows := st.list()
	if len(rows) != 11 {
		t.Fatalf("rows = %d, want 11", len(rows))
	}
	for i, r := range rows {
		if want := "t" + strconv.Itoa(i+1); r.ID != want {
			t.Fatalf("row %d = %s, want %s", i, r.ID, want)
		}
	}
	// The same ids under a plain string sort would interleave (t10 < t2) —
	// guard against the regression re-appearing via sort.Strings.
	plain := make([]string, len(rows))
	for i, r := range rows {
		plain[i] = r.ID
	}
	sort.Strings(plain)
	if plain[1] != "t10" {
		t.Fatalf("test premise broken: lexicographic order gave %v", plain)
	}
}

func ids(rows []struct {
	ID string `json:"id"`
}) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r.ID
	}
	return out
}

package kv

import (
	"fmt"
	"testing"

	"mrdb/internal/mvcc"
)

// TestRequestMethods pins what each request type tells the DistSender and
// the span renderer about itself: typeName is exactly what %T prints (span
// trees that determinism oracles hash carry it), routingKey is the key whose
// range serves the request, and followerOK is true only for reads that asked
// for it.
func TestRequestMethods(t *testing.T) {
	k, end := mvcc.Key("k"), mvcc.Key("z")
	cases := []struct {
		req      request
		key      mvcc.Key
		follower bool
	}{
		{&GetRequest{Key: k}, k, false},
		{&GetRequest{Key: k, FollowerRead: true}, k, true},
		{&ScanRequest{StartKey: k, EndKey: end}, k, false},
		{&ScanRequest{StartKey: k, EndKey: end, FollowerRead: true}, k, true},
		{&PutRequest{Key: k}, k, false},
		{&QueryIntentRequest{Key: k}, k, false},
		{&EndTxnRequest{Txn: &Txn{Meta: mvcc.TxnMeta{Key: k}}}, k, false},
		{&ResolveIntentRequest{Key: k}, k, false},
		{&RefreshRequest{Key: k, EndKey: end}, k, false},
		{&RefreshRequest{Key: k, FollowerRead: true}, k, true},
	}
	seen := map[string]bool{}
	for _, c := range cases {
		want := fmt.Sprintf("%T", c.req)
		seen[want] = true
		if got := c.req.typeName(); got != want {
			t.Errorf("typeName() = %q, want %q", got, want)
		}
		if got := c.req.routingKey(); string(got) != string(c.key) {
			t.Errorf("%s: routingKey() = %q, want %q", want, got, c.key)
		}
		if got := c.req.followerOK(); got != c.follower {
			t.Errorf("%s: followerOK() = %v, want %v", want, got, c.follower)
		}
		if q, err := asRequest(c.req); err != nil || q != c.req {
			t.Errorf("%s: asRequest = %v, %v", want, q, err)
		}
	}
	if len(seen) != 7 {
		t.Errorf("table covers %d request types, want 7", len(seen))
	}
	if _, err := asRequest(struct{}{}); err == nil || err.Error() != "kv: cannot route struct {}" {
		t.Errorf("asRequest(struct{}{}) err = %v", err)
	}
}

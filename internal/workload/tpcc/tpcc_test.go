package tpcc

import (
	"errors"
	"sync"
	"testing"

	"reactdb/internal/core"
	"reactdb/internal/engine"
)

func testParams(warehouses int) Params {
	return Params{Warehouses: warehouses, CustomersPerDistrict: 30, Items: 100}
}

func open(t testing.TB, p Params, cfg engine.Config) *engine.Database {
	t.Helper()
	cfg.Placement = Placement
	db, err := engine.Open(NewDefinition(p), cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := Load(db, p); err != nil {
		t.Fatalf("Load: %v", err)
	}
	t.Cleanup(db.Close)
	return db
}

func TestPlacementAndNames(t *testing.T) {
	if ReactorName(3) != "wh-0003" || WarehouseID("wh-0003") != 3 {
		t.Fatalf("reactor naming wrong")
	}
	if WarehouseID("other") != 0 {
		t.Fatalf("non-warehouse id should be 0")
	}
	if Placement("wh-0001") != 0 || Placement("wh-0004") != 3 || Placement("zzz") != 0 {
		t.Fatalf("placement wrong")
	}
}

func TestNewOrderLocal(t *testing.T) {
	p := testParams(2)
	db := open(t, p, engine.NewSharedNothing(2))
	home := ReactorName(1)
	args := []any{int64(1), int64(5),
		[]int64{1, 2, 3}, []string{home, home, home}, []int64{1, 2, 3}, int64(99), int64(0)}
	v, err := db.Execute(home, ProcNewOrder, args...)
	if err != nil {
		t.Fatalf("new_order: %v", err)
	}
	oID := v.(int64)
	if oID != InitialOrdersPerDistrict+1 {
		t.Fatalf("order id = %d, want %d", oID, InitialOrdersPerDistrict+1)
	}
	// The district's next order id advanced.
	district, _ := db.ReadRow(home, RelDistrict, int64(1))
	if district.Int64(4) != oID+1 {
		t.Fatalf("d_next_o_id = %d, want %d", district.Int64(4), oID+1)
	}
	// Order, new_order and 3 order lines exist.
	if row, _ := db.ReadRow(home, RelOrders, int64(1), oID); row == nil || row.Int64(5) != 3 || !row.Bool(6) {
		t.Fatalf("orders row wrong: %v", row)
	}
	if row, _ := db.ReadRow(home, RelNewOrder, int64(1), oID); row == nil {
		t.Fatalf("new_order row missing")
	}
	for ol := int64(1); ol <= 3; ol++ {
		row, _ := db.ReadRow(home, RelOrderLine, int64(1), oID, ol)
		if row == nil || row.Int64(3) != ol {
			t.Fatalf("order line %d wrong: %v", ol, row)
		}
	}
	// Stock rows were updated.
	stock, _ := db.ReadRow(home, RelStock, int64(1))
	if stock.Int64(3) != 1 {
		t.Fatalf("stock order count not bumped: %v", stock)
	}
}

func TestNewOrderRemoteItems(t *testing.T) {
	p := testParams(3)
	db := open(t, p, engine.NewSharedNothing(3))
	home := ReactorName(1)
	remote := ReactorName(3)
	args := []any{int64(2), int64(3),
		[]int64{10, 20}, []string{home, remote}, []int64{4, 6}, int64(5), int64(0)}
	if _, err := db.Execute(home, ProcNewOrder, args...); err != nil {
		t.Fatalf("new_order remote: %v", err)
	}
	// The remote warehouse's stock row for item 20 was updated with a remote
	// count of 1; the home warehouse's stock for item 20 was untouched.
	remoteStock, _ := db.ReadRow(remote, RelStock, int64(20))
	if remoteStock.Int64(3) != 1 || remoteStock.Int64(4) != 1 {
		t.Fatalf("remote stock not updated: %v", remoteStock)
	}
	homeStock, _ := db.ReadRow(home, RelStock, int64(20))
	if homeStock.Int64(3) != 0 {
		t.Fatalf("home stock should be untouched for remote item")
	}
	// The order row records the order as not all-local.
	order, _ := db.ReadRow(home, RelOrders, int64(2), int64(InitialOrdersPerDistrict+1))
	if order.Bool(6) {
		t.Fatalf("order should not be all_local")
	}
}

func TestNewOrderUnusedItemAborts(t *testing.T) {
	p := testParams(1)
	db := open(t, p, engine.NewSharedNothing(1))
	home := ReactorName(1)
	args := []any{int64(1), int64(1),
		[]int64{1, -1}, []string{home, home}, []int64{1, 1}, int64(7), int64(0)}
	_, err := db.Execute(home, ProcNewOrder, args...)
	if !core.IsUserAbort(err) {
		t.Fatalf("expected user abort for unused item, got %v", err)
	}
	// The district next order id must be unchanged (rollback).
	district, _ := db.ReadRow(home, RelDistrict, int64(1))
	if district.Int64(4) != InitialOrdersPerDistrict+1 {
		t.Fatalf("aborted new_order advanced d_next_o_id")
	}
	// Stock of item 1 untouched.
	stock, _ := db.ReadRow(home, RelStock, int64(1))
	if stock.Int64(3) != 0 {
		t.Fatalf("aborted new_order leaked a stock update")
	}
}

func TestPaymentLocalAndRemoteCustomer(t *testing.T) {
	p := testParams(2)
	db := open(t, p, engine.NewSharedNothing(2))
	home := ReactorName(1)
	other := ReactorName(2)

	// Local customer by id.
	v, err := db.Execute(home, ProcPayment, int64(1), 50.0, home, int64(1), false, int64(7), "", int64(1001))
	if err != nil {
		t.Fatalf("payment local: %v", err)
	}
	if v.(int64) != 7 {
		t.Fatalf("charged customer id = %v, want 7", v)
	}
	cust, _ := db.ReadRow(home, RelCustomer, int64(1), int64(7))
	if cust.Float64(7) != -60.0 { // initial balance -10 minus 50
		t.Fatalf("customer balance = %v, want -60", cust.Float64(7))
	}
	wh, _ := db.ReadRow(home, RelWarehouse, int64(1))
	if wh.Float64(3) != 50.0 {
		t.Fatalf("warehouse ytd = %v, want 50", wh.Float64(3))
	}
	if row, _ := db.ReadRow(home, RelHistory, int64(1), int64(7), int64(1001)); row == nil {
		t.Fatalf("history row missing")
	}

	// Remote customer by last name: the customer update lands on the remote
	// warehouse reactor, the history row stays on the home warehouse.
	v, err = db.Execute(home, ProcPayment, int64(2), 25.0, other, int64(3), true, int64(0), "BARBARBAR", int64(1002))
	if err != nil {
		t.Fatalf("payment remote: %v", err)
	}
	charged := v.(int64)
	remoteCust, _ := db.ReadRow(other, RelCustomer, int64(3), charged)
	if remoteCust.Float64(8) != 35.0 { // initial ytd 10 + 25
		t.Fatalf("remote customer ytd = %v, want 35", remoteCust.Float64(8))
	}
	if row, _ := db.ReadRow(home, RelHistory, int64(2), charged, int64(1002)); row == nil {
		t.Fatalf("history row for remote payment missing on home warehouse")
	}
}

func TestOrderStatusReturnsLatestOrder(t *testing.T) {
	p := testParams(1)
	db := open(t, p, engine.NewSharedNothing(1))
	home := ReactorName(1)
	// Create a fresh order for customer 9 in district 1, which must become the
	// latest one.
	args := []any{int64(1), int64(9), []int64{1}, []string{home}, []int64{1}, int64(123), int64(0)}
	v, err := db.Execute(home, ProcNewOrder, args...)
	if err != nil {
		t.Fatalf("new_order: %v", err)
	}
	newOID := v.(int64)
	res, err := db.Execute(home, ProcOrderStatus, int64(1), false, int64(9), "")
	if err != nil {
		t.Fatalf("order_status: %v", err)
	}
	if res.(int64) != newOID {
		t.Fatalf("order_status returned %v, want %v", res, newOID)
	}
	// By-name lookup also works (every district has customers named BARBARBAR
	// because the loader assigns last names cyclically).
	if _, err := db.Execute(home, ProcOrderStatus, int64(1), true, int64(0), "BARBARBAR"); err != nil {
		t.Fatalf("order_status by name: %v", err)
	}
}

func TestDeliveryProcessesOldestNewOrders(t *testing.T) {
	p := testParams(1)
	db := open(t, p, engine.NewSharedNothing(1))
	home := ReactorName(1)
	before := db.TableLen(home, RelNewOrder)
	v, err := db.Execute(home, ProcDelivery, int64(3), int64(777))
	if err != nil {
		t.Fatalf("delivery: %v", err)
	}
	delivered := v.(int64)
	if delivered != DistrictsPerWarehouse {
		t.Fatalf("delivered %d districts, want %d", delivered, DistrictsPerWarehouse)
	}
	_ = before
	// The oldest undelivered order of district 1 (loaded as order 21) now has
	// a carrier and delivery dates on its lines.
	oldest := int64(InitialOrdersPerDistrict - 10 + 1)
	order, _ := db.ReadRow(home, RelOrders, int64(1), oldest)
	if order.Int64(4) != 3 {
		t.Fatalf("carrier not set on delivered order: %v", order)
	}
	if row, _ := db.ReadRow(home, RelNewOrder, int64(1), oldest); row != nil {
		t.Fatalf("delivered order still in new_order")
	}
	line, _ := db.ReadRow(home, RelOrderLine, int64(1), oldest, int64(1))
	if line.Int64(8) != 777 {
		t.Fatalf("delivery date not stamped on order line: %v", line)
	}
}

// TestConcurrentDeliveriesAbortAsConflicts runs deliveries, new orders and
// order-status lookups against one warehouse from several executors at once.
// Two deliveries that pick the same oldest order race to delete it; the loser
// must see a serialization conflict, never the row vanishing under it.
func TestConcurrentDeliveriesAbortAsConflicts(t *testing.T) {
	p := testParams(1)
	db := open(t, p, engine.NewSharedEverythingWithoutAffinity(4))
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			g := NewGenerator(GeneratorConfig{
				Params:        p,
				HomeWarehouse: 1,
				Mix:           Mix{NewOrder: 50, Delivery: 25, OrderStatus: 25},
				Seed:          int64(w + 1),
			})
			for i := 0; i < 150; i++ {
				req := g.Next()
				_, err := db.Execute(req.Reactor, req.Procedure, req.Args...)
				if err != nil && !errors.Is(err, engine.ErrConflict) && !core.IsUserAbort(err) {
					t.Errorf("%s failed: %v", req.Procedure, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestStockLevelCountsLowStock(t *testing.T) {
	p := testParams(1)
	db := open(t, p, engine.NewSharedNothing(1))
	home := ReactorName(1)
	v, err := db.Execute(home, ProcStockLevel, int64(1), int64(101))
	if err != nil {
		t.Fatalf("stock_level: %v", err)
	}
	// Threshold above the max loaded quantity (100): every recently ordered
	// item counts as low.
	if v.(int64) <= 0 {
		t.Fatalf("stock_level with high threshold should report low items, got %v", v)
	}
	v, err = db.Execute(home, ProcStockLevel, int64(1), int64(0))
	if err != nil {
		t.Fatalf("stock_level: %v", err)
	}
	if v.(int64) != 0 {
		t.Fatalf("stock_level with zero threshold should report none, got %v", v)
	}
}

func TestGeneratorProducesValidMix(t *testing.T) {
	p := testParams(4)
	cfg := GeneratorConfig{
		Params:                   p,
		HomeWarehouse:            2,
		Mix:                      StandardMix(),
		RemoteItemProbability:    0.5,
		RemotePaymentProbability: 0.5,
		Seed:                     42,
	}
	g := NewGenerator(cfg)
	counts := map[string]int{}
	for i := 0; i < 2000; i++ {
		req := g.Next()
		counts[req.Procedure]++
		if req.Reactor != ReactorName(2) {
			t.Fatalf("client affinity violated: %s", req.Reactor)
		}
		if req.Procedure == ProcNewOrder {
			items := req.Args[2].([]int64)
			supply := req.Args[3].([]string)
			if len(items) < MinItemsPerOrder || len(items) > MaxItemsPerOrder {
				t.Fatalf("order size out of range: %d", len(items))
			}
			for i, id := range items {
				if id != -1 && (id < 1 || id > int64(p.Items)) {
					t.Fatalf("item id out of range: %d", id)
				}
				if w := WarehouseID(supply[i]); w < 1 || w > p.Warehouses {
					t.Fatalf("supply warehouse out of range: %s", supply[i])
				}
			}
		}
	}
	// All five transaction types appear, new-order and payment dominate.
	for _, proc := range []string{ProcNewOrder, ProcPayment, ProcOrderStatus, ProcDelivery, ProcStockLevel} {
		if counts[proc] == 0 {
			t.Fatalf("mix never produced %s: %v", proc, counts)
		}
	}
	if counts[ProcNewOrder] < counts[ProcStockLevel] || counts[ProcPayment] < counts[ProcDelivery] {
		t.Fatalf("mix weights look wrong: %v", counts)
	}
}

func TestGeneratorNewOrderDelayRange(t *testing.T) {
	p := testParams(2)
	g := NewGenerator(GeneratorConfig{
		Params:                 p,
		HomeWarehouse:          1,
		Mix:                    NewOrderOnlyMix(),
		NewOrderDelayMinMicros: 300,
		NewOrderDelayMicros:    400,
		RemoteItemProbability:  1.0,
		Seed:                   7,
	})
	for i := 0; i < 200; i++ {
		req := g.NewOrder()
		delay := req.Args[6].(int64)
		if delay < 300 || delay > 400 {
			t.Fatalf("delay out of range: %d", delay)
		}
	}
}

func TestStandardMixRunsAcrossDeployments(t *testing.T) {
	p := testParams(2)
	deployments := map[string]engine.Config{
		"shared-nothing":             engine.NewSharedNothing(2),
		"shared-everything-affinity": engine.NewSharedEverythingWithAffinity(2),
		"shared-everything-roundrob": engine.NewSharedEverythingWithoutAffinity(2),
	}
	for name, cfg := range deployments {
		t.Run(name, func(t *testing.T) {
			db := open(t, p, cfg)
			var wg sync.WaitGroup
			for w := 1; w <= 2; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					g := NewGenerator(GeneratorConfig{
						Params:                   p,
						HomeWarehouse:            w,
						Mix:                      StandardMix(),
						RemoteItemProbability:    0.1,
						RemotePaymentProbability: 0.15,
						Seed:                     int64(w),
					})
					for i := 0; i < 60; i++ {
						req := g.Next()
						_, err := db.Execute(req.Reactor, req.Procedure, req.Args...)
						if err != nil && !errors.Is(err, engine.ErrConflict) && !core.IsUserAbort(err) {
							t.Errorf("%s failed: %v", req.Procedure, err)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			committed, _ := db.Stats()
			if committed == 0 {
				t.Fatalf("no transaction committed")
			}
		})
	}
}

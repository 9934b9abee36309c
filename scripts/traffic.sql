-- A scripted mrsql session: the shell's surface that no CI program reaches.
-- scripts/traffic.sh runs `mrsql < scripts/traffic.sql` under coverage and
-- classes every function it enters as "mrsql" in results/traffic.txt.
CREATE DATABASE shell PRIMARY REGION "us-east1" REGIONS "europe-west2", "asia-northeast1"
SET database = 'shell'
SET enable_locality_optimized_search = 'on'
SHOW REGIONS
SHOW REGIONS FROM DATABASE shell
CREATE TABLE kv (k INT PRIMARY KEY, v STRING, n INT) LOCALITY REGIONAL BY ROW
INSERT INTO kv (k, v, n) VALUES (1, 'it''s', 10), (2, 'b', -2), (3, 'c', 5 - -1)
UPDATE kv SET v = CASE WHEN n = 10 THEN 'ten' ELSE 'other' END WHERE k IN (1, 2, 3)
SELECT v FROM kv WHERE k = 1
SELECT v FROM kv WHERE k = 1
SELECT v FROM kv AS OF SYSTEM TIME '-1ms' WHERE k = 2
CREATE INDEX kv_v ON kv (v)
SELECT k FROM kv WHERE v = 'b'
EXPLAIN SELECT v FROM kv WHERE k = 1
EXPLAIN ANALYZE SELECT v FROM kv WHERE k = 2
SHOW RANGES FROM TABLE kv
SELECT * FROM mrdb_internal.ranges
SELECT * FROM mrdb_internal.node_liveness
SELECT * FROM mrdb_internal.statement_statistics
SELECT * FROM mrdb_internal.contention_events
ALTER DATABASE shell SURVIVE REGION FAILURE
DELETE FROM kv WHERE k = 3
TRUNCATE TABLE kv
DROP TABLE kv
\regions
\ranges
\stats
\t on
\region europe-west2
\q

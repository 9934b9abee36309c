module mrdb

go 1.23

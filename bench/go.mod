module lamassu/bench

go 1.24

require lamassu v0.0.0

replace lamassu => ../

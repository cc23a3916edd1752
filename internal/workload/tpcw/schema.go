// Package tpcw implements the TPC-W bookstore benchmark at the level
// the paper evaluates it: the database schema, a deterministic scaled
// data generator, the database transactions behind the web
// interactions, and the three workload mixes (browsing ≈5% updates,
// shopping ≈20%, ordering ≈50%) driven by emulated browsers with
// exponential think times.
//
// Dates are stored as integer day numbers; monetary values as FLOAT —
// neither affects the replication behaviour under study.
package tpcw

import (
	"fmt"

	"sconrep/internal/sql"
	"sconrep/internal/storage"
)

// ddl lists the schema exactly as the transactions expect it.
var ddl = []string{
	`CREATE TABLE country (
		co_id INT PRIMARY KEY,
		co_name TEXT,
		co_exchange FLOAT,
		co_currency TEXT
	)`,
	`CREATE TABLE address (
		addr_id INT PRIMARY KEY,
		addr_street1 TEXT,
		addr_street2 TEXT,
		addr_city TEXT,
		addr_state TEXT,
		addr_zip TEXT,
		addr_co_id INT
	)`,
	`CREATE TABLE customer (
		c_id INT PRIMARY KEY,
		c_uname TEXT,
		c_passwd TEXT,
		c_fname TEXT,
		c_lname TEXT,
		c_addr_id INT,
		c_phone TEXT,
		c_email TEXT,
		c_since INT,
		c_last_login INT,
		c_login INT,
		c_expiration INT,
		c_discount FLOAT,
		c_balance FLOAT,
		c_ytd_pmt FLOAT,
		c_birthdate INT,
		c_data TEXT
	)`,
	`CREATE INDEX customer_uname ON customer (c_uname)`,
	`CREATE TABLE author (
		a_id INT PRIMARY KEY,
		a_fname TEXT,
		a_lname TEXT,
		a_mname TEXT,
		a_dob INT,
		a_bio TEXT
	)`,
	`CREATE INDEX author_lname ON author (a_lname)`,
	`CREATE TABLE item (
		i_id INT PRIMARY KEY,
		i_title TEXT,
		i_a_id INT,
		i_pub_date INT,
		i_publisher TEXT,
		i_subject TEXT,
		i_desc TEXT,
		i_related1 INT,
		i_related2 INT,
		i_related3 INT,
		i_related4 INT,
		i_related5 INT,
		i_thumbnail TEXT,
		i_image TEXT,
		i_srp FLOAT,
		i_cost FLOAT,
		i_avail INT,
		i_stock INT,
		i_isbn TEXT,
		i_page INT,
		i_backing TEXT,
		i_dimensions TEXT
	)`,
	`CREATE INDEX item_subject ON item (i_subject)`,
	`CREATE INDEX item_author ON item (i_a_id)`,
	`CREATE INDEX item_title ON item (i_title)`,
	`CREATE TABLE orders (
		o_id INT PRIMARY KEY,
		o_c_id INT,
		o_date INT,
		o_sub_total FLOAT,
		o_tax FLOAT,
		o_total FLOAT,
		o_ship_type TEXT,
		o_ship_date INT,
		o_bill_addr_id INT,
		o_ship_addr_id INT,
		o_status TEXT
	)`,
	`CREATE INDEX orders_customer ON orders (o_c_id)`,
	`CREATE TABLE order_line (
		ol_o_id INT,
		ol_id INT,
		ol_i_id INT,
		ol_qty INT,
		ol_discount FLOAT,
		ol_comments TEXT,
		PRIMARY KEY (ol_o_id, ol_id)
	)`,
	`CREATE INDEX order_line_item ON order_line (ol_i_id)`,
	`CREATE TABLE cc_xacts (
		cx_o_id INT PRIMARY KEY,
		cx_type TEXT,
		cx_num TEXT,
		cx_name TEXT,
		cx_expire INT,
		cx_auth_id TEXT,
		cx_xact_amt FLOAT,
		cx_xact_date INT,
		cx_co_id INT
	)`,
	`CREATE TABLE shopping_cart (
		sc_id INT PRIMARY KEY,
		sc_time INT
	)`,
	`CREATE TABLE shopping_cart_line (
		scl_sc_id INT,
		scl_i_id INT,
		scl_qty INT,
		PRIMARY KEY (scl_sc_id, scl_i_id)
	)`,
}

// Tables lists all TPC-W table names.
var Tables = []string{
	"country", "address", "customer", "author", "item",
	"orders", "order_line", "cc_xacts", "shopping_cart", "shopping_cart_line",
}

// parseSchema parses ddl into one schema per table, in ddl order, each
// CREATE INDEX attached to its table in the order it appears: the
// schemas the DDL would leave on an engine.
func parseSchema() ([]*storage.Schema, error) {
	var schemas []*storage.Schema
	byName := make(map[string]*storage.Schema)
	for _, stmt := range ddl {
		parsed, err := sql.Parse(stmt)
		if err != nil {
			return nil, fmt.Errorf("tpcw: parsing DDL: %w", err)
		}
		switch st := parsed.(type) {
		case *sql.CreateTable:
			schemas = append(schemas, st.Schema)
			byName[st.Schema.Table] = st.Schema
		case *sql.CreateIndex:
			s, ok := byName[st.Table]
			if !ok {
				return nil, fmt.Errorf("tpcw: index %s on undeclared table %s", st.Def.Name, st.Table)
			}
			s.Indexes = append(s.Indexes, st.Def)
		default:
			return nil, fmt.Errorf("tpcw: DDL statement %T", parsed)
		}
	}
	return schemas, nil
}

// subjects is the TPC-W subject list.
var subjects = []string{
	"ARTS", "BIOGRAPHIES", "BUSINESS", "CHILDREN", "COMPUTERS",
	"COOKING", "HEALTH", "HISTORY", "HOME", "HUMOR", "LITERATURE",
	"MYSTERY", "NON-FICTION", "PARENTING", "POLITICS", "REFERENCE",
	"RELIGION", "ROMANCE", "SELF-HELP", "SCIENCE-NATURE", "SCIENCE-FICTION",
	"SPORTS", "YOUTH", "TRAVEL",
}

// backings is the TPC-W book backing list.
var backings = []string{"HARDBACK", "PAPERBACK", "USED", "AUDIO", "LIMITED-EDITION"}

// shipTypes is the TPC-W shipping list.
var shipTypes = []string{"AIR", "UPS", "FEDEX", "SHIP", "COURIER", "MAIL"}

// statuses is the order status list.
var statuses = []string{"PENDING", "PROCESSING", "SHIPPED", "DENIED"}
